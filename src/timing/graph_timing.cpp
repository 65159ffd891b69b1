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
  topo_.clear();
  std::vector<std::uint32_t> pending(n, 0);
  for (EdgeId e = 0; e < g_->edge_count(); ++e)
    if (g_->wr(e, r) == 0) ++pending[g_->edge(e).to];
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

bool GraphTiming::relabel_backward(const Retiming& r, VertexId v) {
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
  const bool changed =
      maxa != max_after_[v] || mina != min_after_[v] ||
      max_end != crit_max_end_[v] || min_end != crit_min_end_[v] ||
      min_edge != crit_min_edge_[v];
  max_after_[v] = maxa;
  min_after_[v] = mina;
  crit_max_end_[v] = max_end;
  crit_min_end_[v] = min_end;
  crit_min_edge_[v] = min_edge;
  return changed;
}

void GraphTiming::compute(const Retiming& r) {
  SERELIN_SPAN("timing/pass");
  SERELIN_COUNT(kTimingPasses, 1);
  topo_sort(r);

  for (VertexId v : topo_) relabel_forward(r, v);
  for (auto it = topo_.rbegin(); it != topo_.rend(); ++it)
    relabel_backward(r, *it);

  label_r_ = r;
  labels_exact_ = true;
}

const TimingDelta& GraphTiming::update(const Retiming& r,
                                       std::span<const VertexId> moved_hint) {
  delta_.full = false;
  delta_.wr_changed.clear();
  delta_.relabeled.clear();
  if (!labels_exact_) {
    compute(r);
    delta_.full = true;
    return delta_;
  }

  const std::size_t n = g_->vertex_count();
  if (vmark_.size() != n) {
    vmark_.assign(n, 0);
    pending_.assign(n, 0);
    emark_.assign(g_->edge_count(), 0);
    epoch_ = 0;
  }

  // 1. Vertices whose retiming label differs from the labeled state.
  ++epoch_;
  changed_.clear();
  auto note_changed = [&](VertexId v) {
    if (vmark_[v] == epoch_ || r[v] == label_r_[v]) return;
    vmark_[v] = epoch_;
    changed_.push_back(v);
  };
  if (moved_hint.empty()) {
    for (VertexId v = 0; v < n; ++v) note_changed(v);
  } else {
    for (VertexId v : moved_hint) note_changed(v);
  }

  // 2. Edges whose w_r changed. The labeled state is valid (w_r >= 0
  // everywhere), so any negative edge of `r` is necessarily in this set,
  // and the precondition check costs nothing. It throws before any label
  // or label_r_ changes, so the labels stay exact for the previous state.
  ++epoch_;
  for (VertexId v : changed_) {
    auto scan = [&](EdgeId eid) {
      if (emark_[eid] == epoch_) return;
      emark_[eid] = epoch_;
      const std::int32_t wr_new = g_->wr(eid, r);
      if (wr_new == g_->wr(eid, label_r_)) return;
      SERELIN_REQUIRE(wr_new >= 0,
                      "GraphTiming::update needs a valid retiming: edge " +
                          std::to_string(eid) + " has w_r " +
                          std::to_string(wr_new));
      delta_.wr_changed.push_back(eid);
    };
    for (EdgeId eid : g_->in_edges(v)) scan(eid);
    for (EdgeId eid : g_->out_edges(v)) scan(eid);
  }
  std::sort(delta_.wr_changed.begin(), delta_.wr_changed.end());

  if (delta_.wr_changed.empty()) {
    // Identical w_r everywhere means identical labels (they depend on r
    // only through w_r); just adopt the new representative.
    for (VertexId v : changed_) label_r_[v] = r[v];
    return delta_;
  }

  // 3. Forward cone: arrival changes start at the heads of w_r-changed
  // edges and propagate through w_r = 0 out-edges. The cone is relabeled
  // in a local topological order (Kahn over cone-internal w_r = 0 edges);
  // fanins outside the cone hold their final values by construction.
  ++epoch_;
  cone_.clear();
  auto add_cone = [&](VertexId v) {
    if (vmark_[v] == epoch_) return;
    vmark_[v] = epoch_;
    cone_.push_back(v);
  };
  for (EdgeId eid : delta_.wr_changed) add_cone(g_->edge(eid).to);
  for (std::size_t i = 0; i < cone_.size(); ++i) {
    for (EdgeId eid : g_->out_edges(cone_[i]))
      if (g_->wr(eid, r) == 0) add_cone(g_->edge(eid).to);
  }
  for (VertexId v : cone_) {
    std::uint32_t cnt = 0;
    for (EdgeId eid : g_->in_edges(v))
      if (g_->wr(eid, r) == 0 && vmark_[g_->edge(eid).from] == epoch_) ++cnt;
    pending_[v] = cnt;
  }
  queue_.clear();
  for (VertexId v : cone_)
    if (pending_[v] == 0) queue_.push_back(v);
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    const VertexId v = queue_[i];
    relabel_forward(r, v);
    for (EdgeId eid : g_->out_edges(v)) {
      if (g_->wr(eid, r) != 0) continue;
      const VertexId h = g_->edge(eid).to;
      if (vmark_[h] == epoch_ && --pending_[h] == 0) queue_.push_back(h);
    }
  }
  SERELIN_ASSERT(queue_.size() == cone_.size(),
                 "w_r = 0 subgraph has a cycle: retiming is invalid");
  std::int64_t touched = static_cast<std::int64_t>(cone_.size());

  // 4. Backward cone: label changes start at the tails of w_r-changed
  // edges (their boundary status flipped) and propagate through w_r = 0
  // in-edges, relabeled in reverse topological order.
  ++epoch_;
  cone_.clear();
  for (EdgeId eid : delta_.wr_changed) add_cone(g_->edge(eid).from);
  for (std::size_t i = 0; i < cone_.size(); ++i) {
    for (EdgeId eid : g_->in_edges(cone_[i]))
      if (g_->wr(eid, r) == 0) add_cone(g_->edge(eid).from);
  }
  for (VertexId v : cone_) {
    std::uint32_t cnt = 0;
    for (EdgeId eid : g_->out_edges(v))
      if (g_->wr(eid, r) == 0 && vmark_[g_->edge(eid).to] == epoch_) ++cnt;
    pending_[v] = cnt;
  }
  queue_.clear();
  for (VertexId v : cone_)
    if (pending_[v] == 0) queue_.push_back(v);
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    const VertexId v = queue_[i];
    if (relabel_backward(r, v)) delta_.relabeled.push_back(v);
    for (EdgeId eid : g_->in_edges(v)) {
      if (g_->wr(eid, r) != 0) continue;
      const VertexId t = g_->edge(eid).from;
      if (vmark_[t] == epoch_ && --pending_[t] == 0) queue_.push_back(t);
    }
  }
  SERELIN_ASSERT(queue_.size() == cone_.size(),
                 "w_r = 0 subgraph has a cycle: retiming is invalid");
  touched += static_cast<std::int64_t>(cone_.size());
  SERELIN_COUNT(kIncrNodesTouched, touched);

  std::sort(delta_.relabeled.begin(), delta_.relabeled.end());
  for (VertexId v : changed_) label_r_[v] = r[v];
  return delta_;
}

}  // namespace serelin
