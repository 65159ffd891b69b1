// MinObsWin — the paper's Algorithm 1: minimum register-observability
// retiming under error-latching-window constraints, driven by the weighted
// regular forest.
//
// The solver iterates:
//   1. P0 closure: fold every P0 implication of I = V_P(F), the positive
//      set of the forest, into the forest — an in-edge (u, v) of a mover v
//      that moving I would drain forces u to move with v. This is edge-
//      weight arithmetic (no timing labels), repeated over a fresh positive
//      set until a round folds nothing. Empty I then means no improving
//      feasible move exists: the current retiming is returned.
//   2. Tentatively decrease r(v) by w(v) for every v in I.
//   3. Relabel timing (one full pass per probe) and scan the whole graph
//      for P1' / P2' violations whose dependency source p lies in I (the
//      mover that caused them); the closure leaves no P0 violation to
//      find. If one exists, revert the tentative move (the labels stay at
//      the rejected move until the next probe relabels) and fold the
//      paper's active constraint (p, q, w) of each into the
//      forest: q must move with p, with weight w on top of whatever q
//      already moved (BreakTree + weight update when q's previously assumed
//      weight was wrong, blocking when q is a boundary vertex). Loop to 1.
//   4. No violation: commit the move (one paper-iteration "#J") and loop.
//
// A P2' violation admits two monotone resolutions (push the boundary
// register past its head, or drain the launching register through the
// short path's head); the checker's primary choice is an implication only
// until it chains into an immovable vertex. Converged 0-commit passes
// therefore re-seed with the blocked-tree vertices as avoid-hints, letting
// the next pass fold the drain alternate where the primary dead-ended
// (restores agreement with the exhaustive reference on the corpus freeze).
//
// Every committed retiming is feasible and strictly improves the K-scaled
// objective Σ b(v)·Δ(v); the objective is bounded, so commits are finite;
// between commits the forest monotonically consumes constraint events, with
// a safety budget that throws AssertionError on livelock (never observed in
// the test suite; the property tests compare results against the
// independent ClosureSolver and the exhaustive reference).
//
// With `enforce_elw = false` the P2' machinery is disabled — exactly the
// paper's "Efficient MinObs" baseline (Algorithm 1 with lines 9-12 and
// 19-21 commented out), which solves the problem of [17] with the
// efficiency of [20].
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/objective.hpp"
#include "rgraph/retiming_graph.hpp"
#include "support/deadline.hpp"
#include "timing/params.hpp"

namespace serelin {

struct SolverOptions {
  TimingParams timing;
  double rmin = 0.0;       ///< R_min for P2' (ignored if !enforce_elw)
  bool enforce_elw = true;  ///< false => Efficient MinObs baseline
  /// Wall-clock / cancellation budget. Solvers poll it between feasible
  /// checkpoints; on expiry they return the best feasible retiming found
  /// so far with stop_reason set (a Partial result), never an illegal one.
  Deadline deadline;
};

struct SolverResult {
  Retiming r;                    ///< final (feasible) retiming
  int commits = 0;               ///< the paper's iteration count #J
  std::int64_t iterations = 0;   ///< timing probes (tentative moves)
  std::int64_t objective_gain = 0;  ///< K-scaled drop of Eq. (5)
  bool exited_early = false;  ///< initial retiming already infeasible; it
                              ///< was returned unchanged (paper's b18/b19)
  /// kNone: the solver converged. kDeadline/kCancelled: it stopped early
  /// at a feasible checkpoint; `r` is the best retiming committed so far.
  StopReason stop_reason = StopReason::kNone;
  std::string stop_detail;  ///< human-readable account of an early stop

  /// True when this is a best-so-far (deadline/cancel) result rather than
  /// a converged one.
  bool partial() const { return stop_reason != StopReason::kNone; }
};

class MinObsWinSolver {
 public:
  MinObsWinSolver(const RetimingGraph& g, const ObsGains& gains,
                  SolverOptions options);

  /// Runs Algorithm 1 from the (feasible) initial retiming.
  SolverResult solve(const Retiming& initial) const;

 private:
  std::optional<std::vector<VertexId>> close_p0(const Retiming& r,
                                                class RegularForest& forest,
                                                std::vector<char>& marked,
                                                std::int64_t cap) const;
  int run_pass(const class ConstraintChecker& checker,
               class GraphTiming& timing, SolverResult& out,
               const std::vector<char>& avoid_q, std::vector<char>& frozen,
               class RegularForest& forest) const;

  const RetimingGraph* g_;
  const ObsGains* gains_;
  SolverOptions opt_;
};

}  // namespace serelin
