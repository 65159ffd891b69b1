#include "netlist/netlist.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace serelin {

NodeId Netlist::add_node(std::string name, CellType type,
                         std::vector<NodeId> fanins) {
  SERELIN_REQUIRE(!finalized_, "cannot add nodes after finalize()");
  SERELIN_REQUIRE(!name.empty(), "node names must be non-empty");
  SERELIN_REQUIRE(!by_name_.contains(name), "duplicate node name: " + name);
  const NodeId id = static_cast<NodeId>(nodes_.size());
  for (NodeId f : fanins) {
    if (type == CellType::kDff && f == kNullNode) continue;  // patched later
    SERELIN_REQUIRE(f < id, "fanin of '" + name +
                                "' must reference an existing node");
  }
  by_name_.emplace(name, id);
  nodes_.push_back(Node{std::move(name), type, std::move(fanins), {}});
  switch (type) {
    case CellType::kInput: inputs_.push_back(id); break;
    case CellType::kDff: dffs_.push_back(id); break;
    default: break;
  }
  return id;
}

void Netlist::set_dff_input(NodeId dff, NodeId driver) {
  SERELIN_REQUIRE(!finalized_, "cannot patch after finalize()");
  SERELIN_REQUIRE(dff < nodes_.size() && nodes_[dff].type == CellType::kDff,
                  "set_dff_input target must be a DFF");
  SERELIN_REQUIRE(driver < nodes_.size(), "driver must exist");
  SERELIN_REQUIRE(nodes_[dff].fanins.size() == 1,
                  "a DFF has exactly one fanin slot");
  nodes_[dff].fanins[0] = driver;
}

void Netlist::mark_output(NodeId node) {
  SERELIN_REQUIRE(!finalized_, "cannot mark outputs after finalize()");
  SERELIN_REQUIRE(node < nodes_.size(), "output node must exist");
  if (std::find(outputs_.begin(), outputs_.end(), node) == outputs_.end())
    outputs_.push_back(node);
}

void Netlist::finalize() {
  SERELIN_REQUIRE(!finalized_, "finalize() called twice");
  check_arities();
  build_fanouts();
  compute_gate_order();
  is_output_.assign(nodes_.size(), false);
  for (NodeId o : outputs_) is_output_[o] = true;
  finalized_ = true;
}

NodeId Netlist::find(std::string_view name) const {
  auto it = by_name_.find(std::string(name));
  return it == by_name_.end() ? kNullNode : it->second;
}

bool Netlist::is_output(NodeId node) const {
  SERELIN_REQUIRE(finalized_, "is_output() requires finalize()");
  return is_output_[node];
}

double Netlist::total_area(const CellLibrary& lib) const {
  double area = 0.0;
  for (const Node& n : nodes_) area += lib.area(n.type);
  return area;
}

void Netlist::check_arities() const {
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const Node& n = nodes_[id];
    const int fi = static_cast<int>(n.fanins.size());
    if (fi < min_fanins(n.type) || fi > max_fanins(n.type))
      throw ParseError("node '" + n.name + "' (" +
                       std::string(cell_type_name(n.type)) + ") has illegal fanin count " +
                       std::to_string(fi));
    for (NodeId f : n.fanins) {
      if (f == kNullNode || f >= nodes_.size())
        throw ParseError("node '" + n.name + "' has an unresolved fanin");
    }
  }
}

void Netlist::build_fanouts() {
  for (Node& n : nodes_) n.fanouts.clear();
  for (NodeId id = 0; id < nodes_.size(); ++id)
    for (NodeId f : nodes_[id].fanins) nodes_[f].fanouts.push_back(id);
}

void Netlist::compute_gate_order() {
  // Kahn's algorithm over the one-cycle combinational network: flip-flop
  // outputs, primary inputs and constants are sources; edges into a DFF's D
  // pin terminate a path (the DFF consumes the value at the cycle boundary).
  gate_order_.clear();
  std::vector<std::uint32_t> pending(nodes_.size(), 0);
  std::vector<NodeId> ready;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    const Node& n = nodes_[id];
    if (is_gate(n.type)) {
      pending[id] = static_cast<std::uint32_t>(n.fanins.size());
      // Sources do not gate readiness.
      std::uint32_t from_gates = 0;
      for (NodeId f : n.fanins)
        if (is_gate(nodes_[f].type)) ++from_gates;
      pending[id] = from_gates;
      if (from_gates == 0) ready.push_back(id);
    }
  }
  while (!ready.empty()) {
    const NodeId id = ready.back();
    ready.pop_back();
    gate_order_.push_back(id);
    for (NodeId g : nodes_[id].fanouts) {
      if (!is_gate(nodes_[g].type)) continue;
      SERELIN_ASSERT(pending[g] > 0, "topological bookkeeping broke");
      if (--pending[g] == 0) ready.push_back(g);
    }
  }
  std::size_t gates_total = 0;
  for (const Node& n : nodes_)
    if (is_gate(n.type)) ++gates_total;
  if (gate_order_.size() != gates_total)
    throw ParseError("netlist '" + name_ +
                     "' has a combinational cycle (a cycle with no DFF)");
}

}  // namespace serelin
