// ClosureSolver: an independent, deliberately simple solver for Problem 1,
// used as a cross-check for the regular-forest implementation.
//
// It grows one explicit move bundle Δ (vertex -> decrease amount) at a
// time: seed every positive-gain vertex with Δ = 1, then repeatedly query
// the constraint checker under r − Δ and absorb each reported dependency
// (Δ(q) += w). A dependency on a boundary vertex is unfixable: the seed
// that sponsored the offending chain is excluded and the bundle restarts.
// A feasible bundle with positive total gain commits; a feasible bundle
// with non-positive gain sheds its weakest seed and retries. The process
// ends when no seed set yields an improving feasible bundle.
//
// The forest solver and this one share only the constraint checker; their
// grouping logic is disjoint, so agreement on the final objective is
// meaningful evidence of correctness (the test suite also compares both
// against exhaustive search on small circuits).
#pragma once

#include "core/solver.hpp"

namespace serelin {

class ClosureSolver {
 public:
  ClosureSolver(const RetimingGraph& g, const ObsGains& gains,
                SolverOptions options);

  SolverResult solve(const Retiming& initial) const;

 private:
  const RetimingGraph* g_;
  const ObsGains* gains_;
  SolverOptions opt_;
};

}  // namespace serelin
