// Sequential gate-level netlist.
//
// A Netlist is a flat vector of nodes. Each node is a named signal produced
// by one cell (primary input, D flip-flop, constant, or combinational gate)
// and consumed by its fanout nodes. Primary outputs are a separate list of
// node ids (a node may simultaneously drive a PO and internal fanouts, as in
// .bench).
//
// Construction protocol: add nodes (fanins may reference nodes added later
// only via the two-phase builder in builder.hpp; direct add_node requires
// already-existing fanins, except for kDff whose fanin may be patched with
// set_dff_input to close feedback loops), then call finalize() exactly once.
// finalize() derives fanout lists, checks structural legality (arity, unique
// names, every combinational cycle passes through a flip-flop) and computes
// a topological order of the one-cycle combinational network.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "netlist/cell.hpp"
#include "netlist/cell_library.hpp"

namespace serelin {

using NodeId = std::uint32_t;
inline constexpr NodeId kNullNode = static_cast<NodeId>(-1);

struct Node {
  std::string name;
  CellType type = CellType::kBuf;
  std::vector<NodeId> fanins;
  std::vector<NodeId> fanouts;  // derived by finalize()
};

class Netlist {
 public:
  Netlist() = default;
  explicit Netlist(std::string name) : name_(std::move(name)) {}

  /// Circuit name (e.g. the benchmark name).
  const std::string& name() const { return name_; }

  /// Adds a node. All fanins except a DFF's D pin must already exist; a DFF
  /// may be created with fanin kNullNode and patched later via
  /// set_dff_input() (feedback loops make forward references unavoidable).
  /// Returns the new node's id.
  NodeId add_node(std::string name, CellType type, std::vector<NodeId> fanins);

  /// Patches the D input of flip-flop `dff`. Only legal before finalize().
  void set_dff_input(NodeId dff, NodeId driver);

  /// Declares `node` to drive a primary output. Idempotent.
  void mark_output(NodeId node);

  /// Freezes the netlist: derives fanouts, validates structure, computes the
  /// combinational topological order. Throws on malformed netlists.
  void finalize();

  bool finalized() const { return finalized_; }

  // ---- Accessors (most require finalize()) --------------------------------

  std::size_t node_count() const { return nodes_.size(); }
  const Node& node(NodeId id) const { return nodes_[id]; }

  const std::vector<NodeId>& inputs() const { return inputs_; }
  const std::vector<NodeId>& outputs() const { return outputs_; }
  const std::vector<NodeId>& dffs() const { return dffs_; }

  /// All combinational gate ids (types kBuf..kXnor), in topological order
  /// of the one-cycle network (sources excluded).
  const std::vector<NodeId>& gate_order() const { return gate_order_; }

  /// Number of combinational gates.
  std::size_t gate_count() const { return gate_order_.size(); }

  /// Number of flip-flops (#FF in the paper's Table I).
  std::size_t dff_count() const { return dffs_.size(); }

  /// Looks a node up by name; returns kNullNode if absent.
  NodeId find(std::string_view name) const;

  /// True if `node` is declared as a primary output.
  bool is_output(NodeId node) const;

  /// Total area according to `lib` (combinational + sequential).
  double total_area(const CellLibrary& lib) const;

 private:
  void check_arities() const;
  void build_fanouts();
  void compute_gate_order();

  std::string name_;
  std::vector<Node> nodes_;
  std::unordered_map<std::string, NodeId> by_name_;
  std::vector<NodeId> inputs_;
  std::vector<NodeId> outputs_;
  std::vector<NodeId> dffs_;
  std::vector<NodeId> gate_order_;
  std::vector<bool> is_output_;
  bool finalized_ = false;
};

}  // namespace serelin
