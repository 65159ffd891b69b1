// Tests of min-area retiming — the iMinArea problem of [20], instantiated
// from the MinObsWin machinery with unit observability.
#include <gtest/gtest.h>

#include "check/exhaustive.hpp"
#include "check/graph_sim.hpp"
#include "core/initializer.hpp"
#include "core/min_area.hpp"
#include "gen/random_circuit.hpp"
#include "helpers.hpp"
#include "netlist/builder.hpp"
#include "support/rng.hpp"

namespace serelin {
namespace {

TEST(MinArea, GainsAreDegreeDifferences) {
  const Netlist nl = test::tiny_reconvergent();
  CellLibrary lib;
  RetimingGraph g(nl, lib);
  const ObsGains gains = area_gains(g);
  for (VertexId v : g.gate_vertices()) {
    EXPECT_EQ(gains.gain[v],
              static_cast<std::int64_t>(g.in_edges(v).size()) -
                  static_cast<std::int64_t>(g.out_edges(v).size()));
  }
}

TEST(MinArea, MergesParallelRegisters) {
  // Two registers on the fanins of an AND merge into one at its output.
  NetlistBuilder nb("merge");
  nb.input("x");
  nb.input("y");
  nb.dff("ra", "px");
  nb.dff("rb", "py");
  nb.gate("px", CellType::kBuf, {"x"});
  nb.gate("py", CellType::kBuf, {"y"});
  nb.gate("g", CellType::kAnd, {"ra", "rb"});
  nb.gate("h", CellType::kBuf, {"g"});
  nb.output("h");
  const Netlist nl = nb.build();
  CellLibrary lib;
  RetimingGraph g(nl, lib);
  const TimingParams tp{20.0, 0.0, 2.0};
  const MinAreaResult res =
      min_area_retime(g, tp, g.zero_retiming(), 0.0);
  EXPECT_EQ(res.positions_before, 2);
  EXPECT_EQ(res.positions_after, 1);
  EXPECT_EQ(res.ffs_after, 1);
  EXPECT_TRUE(test::feasible(g, res.solver.r, tp, 0.0));
}

TEST(MinArea, RespectsPeriodConstraint) {
  // The merge is illegal when removing the input-side registers would
  // expose a combinational prefix longer than the period: after the move
  // the path x -> px1..px3 -> g runs 1+1+1+2 = 5.
  NetlistBuilder nb("tight");
  nb.input("x");
  nb.input("y");
  nb.gate("px1", CellType::kBuf, {"x"});
  nb.gate("px2", CellType::kBuf, {"px1"});
  nb.gate("px3", CellType::kBuf, {"px2"});
  nb.gate("py", CellType::kBuf, {"y"});
  nb.dff("ra", "px3");
  nb.dff("rb", "py");
  nb.gate("g", CellType::kAnd, {"ra", "rb"});
  nb.gate("h", CellType::kAnd, {"g", "x"});
  nb.output("h");
  const Netlist nl = nb.build();
  CellLibrary lib;
  RetimingGraph g(nl, lib);
  const MinAreaResult tight =
      min_area_retime(g, {4.0, 0.0, 2.0}, g.zero_retiming());
  EXPECT_EQ(tight.positions_after, tight.positions_before);
  const MinAreaResult loose =
      min_area_retime(g, {7.0, 0.0, 2.0}, g.zero_retiming());
  EXPECT_LT(loose.positions_after, loose.positions_before);
}

TEST(MinArea, MatchesExhaustiveOnTinyCircuits) {
  for (int seed = 1; seed <= 12; ++seed) {
    RandomCircuitSpec spec;
    spec.gates = 8;
    spec.dffs = 5;
    spec.inputs = 3;
    spec.outputs = 2;
    spec.mean_fanin = 1.8;
    spec.window = 4;
    spec.seed = static_cast<std::uint64_t>(seed) * 9176ULL;
    const Netlist nl = generate_random_circuit(spec);
    CellLibrary lib;
    RetimingGraph g(nl, lib);
    const InitResult init = initialize_retiming(g, {});
    const ObsGains gains = area_gains(g);
    SolverOptions opt;
    opt.timing = init.timing;
    opt.rmin = 0.0;
    opt.enforce_elw = false;
    const auto exact = exhaustive_best(g, gains, opt, init.r, 4);
    const MinAreaResult res = min_area_retime(g, init.timing, init.r);
    EXPECT_EQ(res.solver.objective_gain, exact.objective_gain)
        << "seed " << seed;
  }
}

TEST(MinArea, PreservesFunctionality) {
  RandomCircuitSpec spec;
  spec.gates = 100;
  spec.dffs = 30;
  spec.inputs = 6;
  spec.outputs = 6;
  spec.seed = 404;
  const Netlist nl = generate_random_circuit(spec);
  CellLibrary lib;
  RetimingGraph g(nl, lib);
  const InitResult init = initialize_retiming(g, {});
  const MinAreaResult res = min_area_retime(g, init.timing, init.r);
  const EdgeState s0 = zero_edge_state(g, init.r, 1);
  const EdgeState s1 = decompose_forward(g, init.r, res.solver.r, s0, 1);
  GraphStateSimulator a(g, init.r, s0, 1);
  GraphStateSimulator b(g, res.solver.r, s1, 1);
  Rng ra(11), rb(11);
  for (int cycle = 0; cycle < 16; ++cycle) {
    a.randomize_sources(ra);
    b.randomize_sources(rb);
    a.cycle();
    b.cycle();
    ASSERT_EQ(a.sink_values(), b.sink_values()) << "cycle " << cycle;
  }
}

TEST(MinArea, HoldBoundLimitsMerging) {
  // With rmin above the post-merge short path the merge is refused.
  NetlistBuilder nb("hold");
  nb.input("x");
  nb.input("y");
  nb.gate("px", CellType::kBuf, {"x"});
  nb.gate("py", CellType::kBuf, {"y"});
  nb.dff("ra", "px");
  nb.dff("rb", "py");
  nb.gate("g", CellType::kAnd, {"ra", "rb"});
  nb.gate("h", CellType::kBuf, {"g"});
  nb.output("h");
  const Netlist nl = nb.build();
  CellLibrary lib;
  RetimingGraph g(nl, lib);
  // After the merge the register would sit on (g, h): short path d(h)=1.
  const MinAreaResult blocked =
      min_area_retime(g, {20.0, 0.0, 2.0}, g.zero_retiming(), /*rmin=*/2.0);
  EXPECT_EQ(blocked.positions_after, blocked.positions_before);
  const MinAreaResult allowed =
      min_area_retime(g, {20.0, 0.0, 2.0}, g.zero_retiming(), /*rmin=*/1.0);
  EXPECT_LT(allowed.positions_after, allowed.positions_before);
}

}  // namespace
}  // namespace serelin
