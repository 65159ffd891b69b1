#include "check/graph_sim.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace serelin {

namespace {

std::vector<VertexId> topo_zero_weight(const RetimingGraph& g,
                                       const Retiming& r) {
  std::vector<std::uint32_t> pending(g.vertex_count(), 0);
  for (EdgeId e = 0; e < g.edge_count(); ++e)
    if (g.wr(e, r) == 0) ++pending[g.edge(e).to];
  std::vector<VertexId> ready, order;
  order.reserve(g.vertex_count());
  for (VertexId v = 0; v < g.vertex_count(); ++v)
    if (pending[v] == 0) ready.push_back(v);
  while (!ready.empty()) {
    const VertexId v = ready.back();
    ready.pop_back();
    order.push_back(v);
    for (EdgeId eid : g.out_edges(v))
      if (g.wr(eid, r) == 0 && --pending[g.edge(eid).to] == 0)
        ready.push_back(g.edge(eid).to);
  }
  SERELIN_ASSERT(order.size() == g.vertex_count(),
                 "retimed graph has a register-free cycle");
  return order;
}

}  // namespace

EdgeState zero_edge_state(const RetimingGraph& g, const Retiming& r,
                          int words) {
  EdgeState state(g.edge_count());
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const std::int32_t w = g.wr(e, r);
    SERELIN_REQUIRE(w >= 0, "invalid retiming");
    for (std::int32_t k = 0; k < w; ++k)
      state[e].emplace_back(static_cast<std::size_t>(words), 0ULL);
  }
  return state;
}

GraphStateSimulator::GraphStateSimulator(const RetimingGraph& g,
                                         const Retiming& r, EdgeState state,
                                         int words)
    : g_(&g), r_(r), state_(std::move(state)), words_(words) {
  SERELIN_REQUIRE(g.valid(r), "GraphStateSimulator needs a valid retiming");
  SERELIN_REQUIRE(state_.size() == g.edge_count(), "state arity mismatch");
  for (EdgeId e = 0; e < g.edge_count(); ++e)
    SERELIN_REQUIRE(static_cast<std::int32_t>(state_[e].size()) == g.wr(e, r),
                    "edge register count mismatch");
  values_.assign(g.vertex_count(),
                 std::vector<std::uint64_t>(static_cast<std::size_t>(words), 0));
  topo_ = topo_zero_weight(g, r);
}

void GraphStateSimulator::set_source(VertexId v,
                                     std::vector<std::uint64_t> words) {
  SERELIN_REQUIRE(g_->vertex(v).kind == VertexKind::kSource,
                  "set_source target must be a source vertex");
  SERELIN_REQUIRE(words.size() == static_cast<std::size_t>(words_),
                  "word count mismatch");
  values_[v] = std::move(words);
}

void GraphStateSimulator::randomize_sources(Rng& rng) {
  for (VertexId v = 0; v < g_->vertex_count(); ++v) {
    const RVertex& vx = g_->vertex(v);
    if (vx.kind != VertexKind::kSource) continue;
    if (g_->netlist().node(vx.node).type != CellType::kInput) continue;
    for (auto& w : values_[v]) w = rng.next();
  }
}

void GraphStateSimulator::cycle() {
  const Netlist& nl = g_->netlist();
  std::vector<std::uint64_t> gather;
  for (VertexId v : topo_) {
    const RVertex& vx = g_->vertex(v);
    switch (vx.kind) {
      case VertexKind::kSource: {
        const CellType t = nl.node(vx.node).type;
        if (t == CellType::kConst0)
          std::fill(values_[v].begin(), values_[v].end(), 0ULL);
        else if (t == CellType::kConst1)
          std::fill(values_[v].begin(), values_[v].end(), ~0ULL);
        // kInput: value provided via set_source / randomize_sources.
        break;
      }
      case VertexKind::kSink: {
        SERELIN_ASSERT(g_->in_edges(v).size() == 1, "sink has one driver");
        const EdgeId eid = g_->in_edges(v).front();
        const REdge& e = g_->edge(eid);
        values_[v] = state_[eid].empty() ? values_[e.from]
                                         : state_[eid].front();
        break;
      }
      case VertexKind::kGate: {
        const Node& n = nl.node(vx.node);
        const auto& ins = g_->in_edges(v);
        SERELIN_ASSERT(ins.size() == n.fanins.size(),
                       "pin count mismatch in graph simulation");
        gather.resize(ins.size());
        auto& out = values_[v];
        for (int w = 0; w < words_; ++w) {
          for (std::size_t k = 0; k < ins.size(); ++k) {
            const EdgeId eid = ins[k];
            gather[k] = state_[eid].empty()
                            ? values_[g_->edge(eid).from][static_cast<std::size_t>(w)]
                            : state_[eid].front()[static_cast<std::size_t>(w)];
          }
          out[static_cast<std::size_t>(w)] =
              eval_cell(n.type, {gather.data(), gather.size()});
        }
        break;
      }
    }
  }
  // Clock edge: shift every register queue.
  for (EdgeId e = 0; e < g_->edge_count(); ++e) {
    if (state_[e].empty()) continue;
    state_[e].pop_front();
    state_[e].push_back(values_[g_->edge(e).from]);
  }
}

std::vector<std::uint64_t> GraphStateSimulator::sink_values() const {
  std::vector<std::uint64_t> out;
  for (VertexId v = 0; v < g_->vertex_count(); ++v)
    if (g_->vertex(v).kind == VertexKind::kSink)
      out.insert(out.end(), values_[v].begin(), values_[v].end());
  return out;
}

EdgeState decompose_forward(const RetimingGraph& g, const Retiming& r_from,
                            const Retiming& r_to, const EdgeState& state,
                            int words) {
  SERELIN_REQUIRE(g.valid(r_from) && g.valid(r_to),
                  "decompose_forward needs valid retimings");
  const Netlist& nl = g.netlist();
  EdgeState cur = state;
  Retiming rc = r_from;
  std::vector<std::int64_t> remaining(g.vertex_count(), 0);
  std::int64_t total = 0;
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    SERELIN_REQUIRE(g.movable(v) || r_from[v] == r_to[v],
                    "boundary labels must agree");
    SERELIN_REQUIRE(r_to[v] <= r_from[v],
                    "decompose_forward handles forward (decreasing) moves");
    remaining[v] = r_from[v] - r_to[v];
    total += remaining[v];
  }

  std::vector<std::uint64_t> gather;
  while (total > 0) {
    bool progressed = false;
    for (VertexId v = 0; v < g.vertex_count(); ++v) {
      if (remaining[v] == 0) continue;
      // The move is legal when every in-edge currently carries a register.
      bool legal = true;
      for (EdgeId eid : g.in_edges(v))
        if (cur[eid].empty()) {
          legal = false;
          break;
        }
      if (!legal) continue;

      // Remove the register nearest v from each in-edge; evaluate v on the
      // removed values; add a register nearest v on each out-edge.
      const Node& n = nl.node(g.vertex(v).node);
      const auto& ins = g.in_edges(v);
      gather.resize(ins.size());
      std::vector<std::uint64_t> new_init(static_cast<std::size_t>(words), 0);
      for (int w = 0; w < words; ++w) {
        for (std::size_t k = 0; k < ins.size(); ++k)
          gather[k] = cur[ins[k]].front()[static_cast<std::size_t>(w)];
        new_init[static_cast<std::size_t>(w)] =
            eval_cell(n.type, {gather.data(), gather.size()});
      }
      for (EdgeId eid : ins) cur[eid].pop_front();
      for (EdgeId eid : g.out_edges(v)) cur[eid].push_back(new_init);

      --remaining[v];
      --rc[v];
      --total;
      progressed = true;
    }
    SERELIN_ASSERT(progressed,
                   "no elementary move available: retiming pair is invalid");
  }
  return cur;
}

}  // namespace serelin
