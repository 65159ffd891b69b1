// Static timing labels on a retimed graph.
//
// For a retiming graph G and retiming r, the register-free (w_r = 0) edges
// form a DAG. This class computes, per vertex:
//
//   arrival(v)    longest-path delay from any cycle source (register output,
//                 primary input, constant) to the *output* of v — the FEAS
//                 arrival time used by min-period retiming;
//   max_after(v)  longest combinational delay from v's output forward to the
//                 nearest boundary (a register on an out-edge path, or a
//                 primary output);
//   min_after(v)  the same with shortest paths;
//   L(v) = Φ − Ts − max_after(v)     (paper Eq. 6, longest-path label)
//   R(v) = Φ + Th − min_after(v)     (paper Eq. 6, shortest-path label)
//
// Theorem 1 of the paper states that L(v) and R(v) are exactly the leftmost
// and rightmost boundaries of the (interval-union) error-latching window of
// v — verified against timing/elw.hpp in the test suite.
//
// Critical-path witnesses: lt(v) / rt(v) name the *last gate* of the
// critical longest / shortest path from v — the vertex whose out-edge is
// the boundary register. They are the paper's lt/rt labellings that seed
// active constraints in the MinObsWin solver; for the shortest path the
// boundary edge itself is retained (crit_min_edge) so the solver can move
// its registers.
//
// Incremental updates: update(r) diffs `r` against the retiming the labels
// were last computed for and relabels only the affected fanin/fanout cones
// (O(cone) instead of O(|V|+|E|) per solver move). The relabeled values are
// bit-identical to a from-scratch compute(r) — each cone vertex is
// recomputed with the exact compute() loop body, reading already-final
// neighbour labels — so solvers can switch between the two freely. The
// returned TimingDelta additionally names what changed, which lets the
// constraint checker scan only dirty edges/vertices (see constraints.hpp).
#pragma once

#include <span>
#include <vector>

#include "rgraph/retiming_graph.hpp"
#include "timing/params.hpp"

namespace serelin {

/// What a GraphTiming::update() call changed. Lifetime: valid until the
/// next compute()/update() on the same GraphTiming.
struct TimingDelta {
  /// A full recompute ran (labels were not exact before the call); the
  /// dirty sets below are not populated.
  bool full = false;
  /// Edges whose w_r differs from the previously labeled retiming,
  /// ascending. Empty when `full`.
  std::vector<EdgeId> wr_changed;
  /// Vertices whose backward labels (max_after/min_after/lt/rt/
  /// crit_min_edge) changed, ascending. Arrival-only changes are not
  /// listed: the constraint predicates never read arrival. Empty when
  /// `full`.
  std::vector<VertexId> relabeled;
};

class GraphTiming {
 public:
  GraphTiming(const RetimingGraph& g, TimingParams params);

  /// Recomputes every label for retiming `r` (O(|V|+|E|)).
  /// Requires g.valid(r).
  void compute(const Retiming& r);

  /// Incrementally relabels for `r`, touching only the cones reachable
  /// from edges whose w_r changed since the last compute()/update().
  /// Results are bit-identical to compute(r). Requires g.valid(r): the
  /// w_r = 0 subgraph of an invalid retiming is not a meaningful DAG, so
  /// an edge whose w_r changes to a negative value throws
  /// PreconditionError and leaves the labels at the previous state.
  ///
  /// `moved_hint`, when non-empty, must be a superset of the vertices
  /// whose r differs from the last labeled state (duplicates fine); it
  /// skips the O(|V|) diff scan. Falls back to a full compute when no
  /// labels exist yet.
  const TimingDelta& update(const Retiming& r,
                            std::span<const VertexId> moved_hint = {});

  const TimingParams& params() const { return params_; }

  double arrival(VertexId v) const { return arrival_[v]; }
  double max_after(VertexId v) const { return max_after_[v]; }
  double min_after(VertexId v) const { return min_after_[v]; }

  /// Paper Eq. (6) labels at the output of v.
  double L(VertexId v) const { return params_.window_lo() - max_after_[v]; }
  double R(VertexId v) const { return params_.window_hi() - min_after_[v]; }

  /// Last gate of the critical longest path leaving v (the paper's lt(v)).
  VertexId lt(VertexId v) const { return crit_max_end_[v]; }
  /// Last gate of the critical shortest path leaving v (the paper's rt(v)).
  VertexId rt(VertexId v) const { return crit_min_end_[v]; }

  /// The boundary edge of the critical shortest path from v: an out-edge of
  /// rt(v) that carries registers (or reaches a primary-output sink).
  EdgeId crit_min_edge(VertexId v) const { return crit_min_edge_[v]; }

 private:
  void topo_sort(const Retiming& r);
  /// Recomputes arrival(v) from its (already final) w_r = 0 fanins.
  void relabel_forward(const Retiming& r, VertexId v);
  /// Recomputes the five backward labels of v from its (already final)
  /// w_r = 0 fanouts; returns true when any of them changed.
  bool relabel_backward(const Retiming& r, VertexId v);

  const RetimingGraph* g_;
  TimingParams params_;
  std::vector<double> arrival_;
  std::vector<double> max_after_;
  std::vector<double> min_after_;
  std::vector<VertexId> crit_max_end_;
  std::vector<VertexId> crit_min_end_;
  std::vector<EdgeId> crit_min_edge_;
  std::vector<VertexId> topo_;

  // Incremental-update state: the retiming the labels describe, and
  // epoch-stamped scratch so updates allocate nothing in steady state.
  Retiming label_r_;
  bool labels_exact_ = false;
  TimingDelta delta_;
  std::uint64_t epoch_ = 0;
  std::vector<std::uint64_t> vmark_;
  std::vector<std::uint64_t> emark_;
  std::vector<std::uint32_t> pending_;
  std::vector<VertexId> changed_;
  std::vector<VertexId> cone_;
  std::vector<VertexId> queue_;
};

}  // namespace serelin
