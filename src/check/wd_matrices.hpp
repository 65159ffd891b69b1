// The classical W/D-matrix machinery of Leiserson–Saxe retiming — the
// Θ(|V|²) formulation whose memory/CPU cost motivates both Wang–Zhou's
// incremental algorithm [20] and this paper's §IV-A argument ("the
// bottleneck of this class of algorithms lies in the Θ(|V|²) memory space
// to construct W and D and the resulting dense flow graph").
//
// For every ordered vertex pair (u, v) connected by a path:
//   W(u, v) = minimum register count over all u→v paths,
//   D(u, v) = maximum total vertex delay (including both endpoints) over
//             the register-minimal u→v paths.
// A clock period c is feasible iff the difference-constraint system
//   r(u) − r(v) ≤ w(e)           for every edge e = (u, v)        (P0)
//   r(u) − r(v) ≤ W(u, v) − 1    whenever D(u, v) > c − Ts        (P1)
//   r(x) = 0                     for boundary vertices
// is satisfiable (Leiserson–Saxe Theorem 7), decided by Bellman–Ford.
//
// serelin's production paths never use these matrices: every min-period
// search runs FEAS (MinPeriodRetimer). They are the exact reference that
// the differential harness checks FEAS against on small circuits, and the
// measured baseline in bench/wd_comparison (quadratic memory vs the
// forest's O(|E|)).
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "rgraph/retiming_graph.hpp"
#include "support/deadline.hpp"

namespace serelin {

class WdMatrices {
 public:
  static constexpr std::int32_t kUnreachable =
      std::numeric_limits<std::int32_t>::max();

  /// Computes both matrices: per-source Dijkstra on register counts, then
  /// a longest-delay DP over each source's tight-edge DAG.
  /// O(|V|·|E|·log|V|) time, Θ(|V|²) memory — intentionally.
  /// The matrices are all-or-nothing (a half-filled W/D pair is useless),
  /// so an expired deadline throws CancelledError instead of returning a
  /// partial object.
  explicit WdMatrices(const RetimingGraph& g, Deadline deadline = Deadline());

  std::size_t size() const { return n_; }

  /// Minimum registers on any u→v path; kUnreachable if none.
  std::int32_t w(VertexId u, VertexId v) const { return w_[idx(u, v)]; }

  /// Maximum delay of the register-minimal u→v paths (endpoints included).
  double d(VertexId u, VertexId v) const { return d_[idx(u, v)]; }

  /// Bytes held by the two matrices (the quantity the paper's memory
  /// argument is about).
  std::size_t memory_bytes() const {
    return w_.capacity() * sizeof(std::int32_t) +
           d_.capacity() * sizeof(double);
  }

  /// All distinct D values in increasing order — the classical candidate
  /// clock periods.
  std::vector<double> candidate_periods() const;

 private:
  std::size_t idx(VertexId u, VertexId v) const {
    return static_cast<std::size_t>(u) * n_ + v;
  }

  std::size_t n_ = 0;
  std::vector<std::int32_t> w_;
  std::vector<double> d_;
};

/// Feasibility of period `phi` (with setup time `setup`) by Bellman–Ford
/// over the constraint system above; returns a legal retiming on success.
std::optional<Retiming> wd_retime_for_period(const RetimingGraph& g,
                                             const WdMatrices& wd,
                                             double phi, double setup = 0.0);

/// Exact minimal feasible period: binary search over candidate_periods().
/// With a deadline, the search stops at expiry and returns the smallest
/// period proven feasible so far (`r` legally achieves `period`; it may
/// not be minimal) with stop_reason set.
struct WdMinPeriodResult {
  double period = 0.0;
  Retiming r;
  StopReason stop_reason = StopReason::kNone;
  /// Human-readable account of an early stop; non-empty whenever
  /// stop_reason != kNone (timeout must stay distinguishable from a wrong
  /// answer in differential comparisons).
  std::string stop_detail;

  bool partial() const { return stop_reason != StopReason::kNone; }
};
WdMinPeriodResult wd_min_period(const RetimingGraph& g, const WdMatrices& wd,
                                double setup = 0.0,
                                Deadline deadline = Deadline());

}  // namespace serelin
