// Minimum-period retiming via the classical FEAS iteration (Leiserson–Saxe;
// the paper's initialization uses the efficient equivalents [23,24]).
//
// For a target period φ, FEAS repeatedly computes arrival times over the
// current w_r = 0 DAG and increments r(v) on every movable vertex whose
// arrival exceeds φ − Ts (pulling a register in front of it). If the
// violations vanish within the pass budget the retiming is feasible for φ;
// a persistent violation on a boundary vertex (a primary-input-to-register
// or register-to-primary-output path that cannot legally be cut) or budget
// exhaustion reports infeasibility. minimize() binary-searches φ between
// the largest gate delay and the unretimed critical path.
#pragma once

#include <optional>
#include <string>

#include "rgraph/retiming_graph.hpp"
#include "support/deadline.hpp"
#include "timing/params.hpp"

namespace serelin {

class MinPeriodRetimer {
 public:
  struct Options {
    double setup = 0.0;
    /// FEAS pass budget; 0 means |V| (the exact bound, which can be slow on
    /// very large graphs — the experiment harness uses a smaller budget).
    int max_passes = 0;
    /// Binary-search resolution on the period.
    double tolerance = 1e-3;
    /// Wall-clock / cancellation budget. On expiry minimize() stops the
    /// binary search and returns the best feasible result found so far
    /// (stop_reason set); a FEAS probe interrupted mid-run counts as
    /// infeasible for its probe period, never as an illegal retiming.
    Deadline deadline;
  };

  MinPeriodRetimer(const RetimingGraph& g, Options options);

  /// Retiming achieving period φ from `start`, or nullopt if FEAS fails.
  std::optional<Retiming> retime_for_period(double phi,
                                            const Retiming& start) const;

  struct Result {
    double period = 0.0;  ///< smallest feasible period found
    Retiming r;           ///< a retiming achieving it
    /// kNone: converged to tolerance. Otherwise the search stopped early;
    /// `r` still legally achieves `period` (it may just not be minimal).
    StopReason stop_reason = StopReason::kNone;
    /// Human-readable account of an early stop; non-empty whenever
    /// stop_reason != kNone, so callers (in particular the differential
    /// harness) can tell a timeout from a genuine solver divergence.
    std::string stop_detail;

    bool partial() const { return stop_reason != StopReason::kNone; }
  };

  /// Minimal-period retiming (within tolerance).
  Result minimize() const;

 private:
  const RetimingGraph* g_;
  Options opt_;
};

}  // namespace serelin
