// Min-area retiming — the problem of Wang–Zhou's iMinArea [20], which the
// paper's algorithm structurally extends ("If we ignore the constraints in
// P2' ... we actually obtain a problem equivalent to ... min-area retiming
// [18], [20], [22] in terms of the problem structure").
//
// Realized here as a thin instantiation of the MinObsWin machinery: with
// every signal assigned unit observability, Eq. (5) degenerates to the
// register-position count Σ w_r(u, v) and b(v) = indeg(v) − outdeg(v), so
// the forest solver performs register minimization under the clock-period
// constraint. This both provides the classical tool and demonstrates the
// paper's claim that the two problems share one algorithm.
#pragma once

#include "core/objective.hpp"
#include "core/solver.hpp"
#include "rgraph/retiming_graph.hpp"
#include "timing/params.hpp"

namespace serelin {

/// Uniform-observability gains: Eq. (5) becomes the register-position
/// count (per-vertex gain indeg − outdeg).
ObsGains area_gains(const RetimingGraph& g);

struct MinAreaResult {
  SolverResult solver;
  std::int64_t positions_before = 0;  ///< Σ w_r before (edge registers)
  std::int64_t positions_after = 0;
  std::int64_t ffs_before = 0;  ///< shared flip-flop count before
  std::int64_t ffs_after = 0;
};

/// Minimizes register positions from `initial` under the period constraint
/// (setup only; pass rmin > 0 to keep hold/ELW control too), stopping at
/// `deadline` with the best legal retiming so far.
MinAreaResult min_area_retime(const RetimingGraph& g,
                              const TimingParams& timing,
                              const Retiming& initial, double rmin = 0.0,
                              const Deadline& deadline = {});

}  // namespace serelin
