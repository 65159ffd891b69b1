#include "timing/graph_timing.hpp"

#include <algorithm>
#include <string>

#include "support/check.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"

namespace serelin {

GraphTiming::GraphTiming(const RetimingGraph& g, TimingParams params)
    : g_(&g), params_(params) {
  const std::size_t n = g.vertex_count();
  arrival_.assign(n, 0.0);
  max_after_.assign(n, 0.0);
  min_after_.assign(n, 0.0);
  crit_max_end_.assign(n, kNullVertex);
  crit_min_end_.assign(n, kNullVertex);
  crit_min_edge_.assign(n, kNullEdge);
  topo_.reserve(n);
}

void GraphTiming::topo_sort(const Retiming& r) {
  const std::size_t n = g_->vertex_count();
  std::vector<std::uint32_t> pending(n, 0);
  for (EdgeId e = 0; e < g_->edge_count(); ++e) {
    const std::int32_t wr = g_->wr(e, r);
    SERELIN_REQUIRE(wr >= 0,
                    "GraphTiming::compute needs a valid retiming: edge " +
                        std::to_string(e) + " has w_r " + std::to_string(wr));
    if (wr == 0) ++pending[g_->edge(e).to];
  }
  topo_.clear();
  std::vector<VertexId> ready;
  for (VertexId v = 0; v < n; ++v)
    if (pending[v] == 0) ready.push_back(v);
  while (!ready.empty()) {
    const VertexId v = ready.back();
    ready.pop_back();
    topo_.push_back(v);
    for (EdgeId eid : g_->out_edges(v)) {
      const REdge& e = g_->edge(eid);
      if (g_->wr(eid, r) == 0 && --pending[e.to] == 0) ready.push_back(e.to);
    }
  }
  SERELIN_ASSERT(topo_.size() == n,
                 "w_r = 0 subgraph has a cycle: retiming is invalid");
}

void GraphTiming::relabel_forward(const Retiming& r, VertexId v) {
  // FEAS arrival time: measured at v's output; register outputs / primary
  // inputs contribute time zero.
  double in_arrival = 0.0;
  for (EdgeId eid : g_->in_edges(v)) {
    if (g_->wr(eid, r) != 0) continue;
    in_arrival = std::max(in_arrival, arrival_[g_->edge(eid).from]);
  }
  arrival_[v] = g_->vertex(v).delay + in_arrival;
}

void GraphTiming::relabel_backward(const Retiming& r, VertexId v) {
  // Longest/shortest delay from v's output to the nearest downstream
  // boundary (a registered out-edge or a PO sink), plus the critical-path
  // witnesses lt/rt.
  double maxa = 0.0;
  double mina = 0.0;
  VertexId max_end = v;
  VertexId min_end = v;
  EdgeId min_edge = kNullEdge;
  bool first = true;
  for (EdgeId eid : g_->out_edges(v)) {
    const REdge& e = g_->edge(eid);
    const bool boundary =
        g_->wr(eid, r) > 0 || g_->vertex(e.to).kind == VertexKind::kSink;
    double cand;
    VertexId cand_max_end, cand_min_end;
    EdgeId cand_min_edge;
    if (boundary) {
      cand = 0.0;
      cand_max_end = cand_min_end = v;
      cand_min_edge = eid;
    } else {
      cand = g_->vertex(e.to).delay;  // 0-weight edge into a gate
      cand_max_end = crit_max_end_[e.to];
      cand_min_end = crit_min_end_[e.to];
      cand_min_edge = crit_min_edge_[e.to];
    }
    const double cand_max = boundary ? 0.0 : cand + max_after_[e.to];
    const double cand_min = boundary ? 0.0 : cand + min_after_[e.to];
    if (first || cand_max > maxa) {
      maxa = cand_max;
      max_end = cand_max_end;
    }
    if (first || cand_min < mina) {
      mina = cand_min;
      min_end = cand_min_end;
      min_edge = cand_min_edge;
    }
    first = false;
  }
  max_after_[v] = maxa;
  min_after_[v] = mina;
  crit_max_end_[v] = max_end;
  crit_min_end_[v] = min_end;
  crit_min_edge_[v] = min_edge;
}

void GraphTiming::compute(const Retiming& r) {
  SERELIN_SPAN("timing/pass");
  SERELIN_COUNT(kTimingPasses, 1);
  topo_sort(r);

  for (VertexId v : topo_) relabel_forward(r, v);
  for (auto it = topo_.rbegin(); it != topo_.rend(); ++it)
    relabel_backward(r, *it);
}

}  // namespace serelin
