#include "gen/paper_suite.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"
#include "support/corpus.hpp"

namespace serelin {

const std::vector<SuiteCircuit>& paper_suite() {
  static const std::vector<SuiteCircuit> kSuite = {
      {"s13207", 7952, 10896, 1508, 117, 7.72e-3, -0.2314, -0.4702},
      {"s15850.1", 9773, 13566, 1567, 111, 9.77e-3, -0.3171, -0.3171},
      {"s35932", 16066, 28588, 5814, 145, 2.42e-2, -0.3545, -0.6675},
      {"s38417", 22180, 31127, 2806, 81, 1.59e-2, 0.0292, -0.0862},
      {"s38584.1", 19254, 33060, 7371, 262, 2.48e-2, -0.3323, -0.4196},
      {"b14_1_opt", 4049, 9036, 2382, 112, 9.15e-3, -0.1289, -0.3289},
      {"b14_opt", 5348, 11849, 2041, 135, 9.75e-3, -0.2671, -0.0667},
      {"b15_1_opt", 7421, 16946, 2798, 158, 1.25e-2, -0.2458, -0.3712},
      {"b15_opt", 7023, 15856, 2415, 195, 1.35e-2, -0.2697, -0.4574},
      {"b17_1_opt", 23026, 52376, 8791, 192, 3.92e-2, -0.1264, -0.3634},
      {"b17_opt", 22758, 51622, 7787, 266, 3.42e-2, -0.2813, -0.4594},
      {"b18_1_opt", 68282, 151746, 21027, 251, 9.42e-2, -0.2851, 0.0},
      {"b18_opt", 69914, 155355, 20907, 255, 9.56e-2, -0.3292, 0.0},
      {"b19_1", 212729, 410577, 59580, 317, 2.45e-1, -0.3040, -0.3040},
      {"b19", 224625, 433583, 60801, 317, 2.50e-1, -0.3072, -0.3072},
      {"b20_1_opt", 10166, 22456, 3462, 191, 1.63e-2, -0.3451, -0.3451},
      {"b20_opt", 11958, 26479, 4761, 182, 2.15e-2, -0.3148, -0.3141},
      {"b21_1_opt", 9663, 21246, 2451, 171, 1.22e-2, -0.2528, -0.4887},
      {"b21_opt", 12135, 26686, 4186, 215, 1.90e-2, -0.3335, -0.4082},
      {"b22_1_opt", 14957, 32663, 4398, 194, 2.19e-2, -0.3139, -0.3334},
      {"b22_opt", 17330, 37941, 5556, 178, 2.67e-2, -0.2956, -0.3588},
  };
  return kSuite;
}

const SuiteCircuit& suite_circuit(const std::string& name) {
  const auto& suite = paper_suite();
  const auto it =
      std::find_if(suite.begin(), suite.end(),
                   [&](const SuiteCircuit& c) { return c.name == name; });
  SERELIN_REQUIRE(it != suite.end(), "unknown suite circuit: " + name);
  return *it;
}

Netlist generate_suite_circuit(const SuiteCircuit& row, std::uint64_t seed) {
  if (seed == 0) seed = content_hash(row.name);
  RandomCircuitSpec spec;
  spec.name = row.name;
  spec.gates = row.vertices;
  spec.dffs = row.dffs;
  // Interface width follows ISCAS/ITC conventions (s13207: 152 POs for
  // ~8k gates): roughly one port per 50-60 gates. The PO count matters to
  // the algorithms — short paths that end at primary outputs are exactly
  // the unfixable P2' violations behind the paper's b18/b19 early exits
  // and the MinObs/MinObsWin contrast.
  spec.inputs = std::max(16, row.vertices / 60);
  spec.outputs = std::max(16, row.vertices / 50);
  // Mean fanin targets the published |E| after subtracting the PO sink
  // edges (the generator's repair pass is pin-neutral).
  spec.mean_fanin = std::clamp(
      static_cast<double>(row.edges - spec.outputs) / row.vertices, 1.05,
      2.95);
  // No inline pipelining for the suite stand-ins: inserted pipeline
  // registers multiply the movable-register structure and blow the solver
  // cost up ~3x on the 220k-gate rows without materially changing the
  // percolation-dominated clock period (see DESIGN.md). Feedback-style
  // state registers match the original FEAS-initialized behaviour.
  spec.pipeline_prob = 0.0;
  spec.seed = seed;
  return generate_random_circuit(spec);
}

}  // namespace serelin
