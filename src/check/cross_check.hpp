// Cross-check of the incremental timing fast path against its
// from-scratch ground truth. The solvers run on GraphTiming::update()
// cones, which carry a bit-identity proof (DESIGN.md §4.1); this helper is
// the executable form of that proof — independent recomputation through
// the eager code path, compared field by field. It backs the oracle-style
// validation suites (tests/test_check.cpp) and the differential harness;
// like the RetimingOracle it reports rather than throws.
#pragma once

#include <string>

#include "rgraph/retiming_graph.hpp"
#include "timing/graph_timing.hpp"

namespace serelin {

/// Outcome of one cross-check: ok, plus a human-readable account of the
/// first divergence when not.
struct CrossCheckResult {
  bool ok = true;
  std::string detail;
};

/// Verifies that `incremental` (a GraphTiming that has been advanced to
/// retiming `r` through update() calls) holds labels bit-identical to a
/// fresh GraphTiming::compute(r) with the same parameters. Requires
/// g.valid(r). Every label the constraint checker reads is compared:
/// arrival, max_after, min_after, lt, rt and crit_min_edge, with exact
/// (bitwise) double equality — the incremental contract is identity, not
/// approximation.
CrossCheckResult cross_check_incremental_timing(const RetimingGraph& g,
                                                const GraphTiming& incremental,
                                                const Retiming& r);

}  // namespace serelin
