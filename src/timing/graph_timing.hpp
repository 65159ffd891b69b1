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
// One relabel: every caller runs compute(r), a full O(|V|+|E|) pass, for
// each retiming it reads labels for. The moves the solvers relabel for
// (P0-closed MinObsWin probes, FEAS passes over every late vertex) change
// most of the graph, so an incremental cone relabel does not pay on most
// circuits (DESIGN.md §4.1).
#pragma once

#include <vector>

#include "rgraph/retiming_graph.hpp"
#include "timing/params.hpp"

namespace serelin {

class GraphTiming {
 public:
  GraphTiming(const RetimingGraph& g, TimingParams params);

  /// Recomputes every label for retiming `r` (O(|V|+|E|)). Requires a
  /// non-negative w_r on every edge: the w_r = 0 subgraph of a P0-invalid
  /// retiming is not a meaningful DAG, so a negative edge throws
  /// PreconditionError before any label changes.
  void compute(const Retiming& r);

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
  /// Orders the w_r = 0 subgraph into topo_; throws on a negative w_r.
  void topo_sort(const Retiming& r);
  /// Computes arrival(v) from its (already labeled) w_r = 0 fanins.
  void relabel_forward(const Retiming& r, VertexId v);
  /// Computes the five backward labels of v from its (already labeled)
  /// w_r = 0 fanouts.
  void relabel_backward(const Retiming& r, VertexId v);

  const RetimingGraph* g_;
  TimingParams params_;
  std::vector<double> arrival_;
  std::vector<double> max_after_;
  std::vector<double> min_after_;
  std::vector<VertexId> crit_max_end_;
  std::vector<VertexId> crit_min_end_;
  std::vector<EdgeId> crit_min_edge_;
  std::vector<VertexId> topo_;
};

}  // namespace serelin
