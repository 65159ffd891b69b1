#include "check/exhaustive.hpp"

#include <vector>

#include "support/check.hpp"
#include "timing/constraints.hpp"
#include "timing/graph_timing.hpp"

namespace serelin {

ExhaustiveResult exhaustive_best(const RetimingGraph& g, const ObsGains& gains,
                                 const SolverOptions& options,
                                 const Retiming& initial, int bound) {
  SERELIN_REQUIRE(g.valid(initial), "initial retiming must be valid");
  SERELIN_REQUIRE(bound >= 0, "bound must be non-negative");
  const auto& movable_list = g.gate_vertices();
  SERELIN_REQUIRE(movable_list.size() <= 16,
                  "exhaustive_best is for tiny circuits only");

  const double rmin = options.enforce_elw ? options.rmin : 0.0;
  ConstraintChecker checker(g, options.timing, rmin);
  GraphTiming timing(g, options.timing);

  ExhaustiveResult best;
  best.r = initial;

  std::vector<int> delta(movable_list.size(), 0);
  Retiming cand = initial;
  // The space is (bound+1)^|gates| points: even "tiny" circuits can take a
  // while, so the enumeration is cancellable. On expiry the result carries
  // the best point seen plus the stop reason (it is no longer an oracle).
  DeadlinePoller poller(options.deadline);
  for (;;) {
    if (poller.expired()) {
      best.stop_reason = options.deadline.status();
      break;
    }
    // Evaluate the current Δ.
    bool valid = g.valid(cand);
    if (valid) {
      timing.compute(cand);
      valid = !checker.find_violation(cand, timing).has_value();
    }
    if (valid) {
      ++best.feasible_points;
      std::int64_t gain = 0;
      for (std::size_t i = 0; i < movable_list.size(); ++i)
        gain += gains.gain[movable_list[i]] * delta[i];
      if (gain > best.objective_gain) {
        best.objective_gain = gain;
        best.r = cand;
      }
    }
    // Odometer increment.
    std::size_t i = 0;
    for (; i < delta.size(); ++i) {
      if (delta[i] < bound) {
        ++delta[i];
        --cand[movable_list[i]];
        break;
      }
      cand[movable_list[i]] += delta[i];
      delta[i] = 0;
    }
    if (i == delta.size()) break;
  }
  return best;
}

}  // namespace serelin
