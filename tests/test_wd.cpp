// Tests of the classical W/D-matrix formulation (src/check/wd_matrices) and
// its cross-validation against the FEAS-based min-period retimer.
#include <gtest/gtest.h>

#include "check/wd_matrices.hpp"
#include "core/min_period.hpp"
#include "gen/random_circuit.hpp"
#include "helpers.hpp"
#include "netlist/builder.hpp"
#include "timing/graph_timing.hpp"

namespace serelin {
namespace {

TEST(WdMatrices, PipelineHandValues) {
  // x(0) -> a(1) -> b(1) -> [ff] -> c(1) -> PO.
  const Netlist nl = test::tiny_pipeline();
  CellLibrary lib;
  RetimingGraph g(nl, lib);
  WdMatrices wd(g);
  const VertexId x = g.vertex_of(nl.find("x"));
  const VertexId a = g.vertex_of(nl.find("a"));
  const VertexId b = g.vertex_of(nl.find("b"));
  const VertexId c = g.vertex_of(nl.find("c"));

  EXPECT_EQ(wd.w(a, b), 0);
  EXPECT_DOUBLE_EQ(wd.d(a, b), 2.0);  // d(a) + d(b)
  EXPECT_EQ(wd.w(a, c), 1);           // through the register
  EXPECT_DOUBLE_EQ(wd.d(a, c), 3.0);  // d(a) + d(b) + d(c)
  EXPECT_EQ(wd.w(x, c), 1);
  EXPECT_DOUBLE_EQ(wd.d(x, c), 3.0);  // x has delay 0
  EXPECT_EQ(wd.w(c, a), WdMatrices::kUnreachable);  // no backward path
  // Diagonal: the empty path.
  EXPECT_EQ(wd.w(b, b), 0);
  EXPECT_DOUBLE_EQ(wd.d(b, b), 1.0);
}

TEST(WdMatrices, RingPaths) {
  const Netlist nl = test::tiny_ring();
  CellLibrary lib;
  RetimingGraph g(nl, lib);
  WdMatrices wd(g);
  const VertexId inv1 = g.vertex_of(nl.find("inv1"));
  const VertexId buf1 = g.vertex_of(nl.find("buf1"));
  // inv1 -> [ff2] -> buf1: one register; the reverse direction goes
  // around through [ff1].
  EXPECT_EQ(wd.w(inv1, buf1), 1);
  EXPECT_EQ(wd.w(buf1, inv1), 1);
  EXPECT_DOUBLE_EQ(wd.d(inv1, buf1), 2.0);
}

TEST(WdMatrices, RegisterMinimalPathWinsEvenIfShorterDelay) {
  // Two routes u -> v: a long register-free chain and a short registered
  // hop. W picks the registered... no: W is the MINIMUM register count, so
  // the register-free chain defines W = 0 and D = its (large) delay.
  NetlistBuilder nb("tworoutes");
  nb.input("x");
  nb.gate("u", CellType::kBuf, {"x"});
  nb.gate("m1", CellType::kBuf, {"u"});
  nb.gate("m2", CellType::kBuf, {"m1"});
  nb.dff("d", "u");
  nb.gate("v", CellType::kAnd, {"m2", "d"});
  nb.output("v");
  const Netlist nl = nb.build();
  CellLibrary lib;
  RetimingGraph g(nl, lib);
  WdMatrices wd(g);
  const VertexId u = g.vertex_of(nl.find("u"));
  const VertexId v = g.vertex_of(nl.find("v"));
  EXPECT_EQ(wd.w(u, v), 0);
  EXPECT_DOUBLE_EQ(wd.d(u, v), 1 + 1 + 1 + 2);  // u, m1, m2, v(AND)
}

TEST(WdMatrices, CandidatePeriodsSortedUnique) {
  const Netlist nl = test::tiny_ring();
  CellLibrary lib;
  RetimingGraph g(nl, lib);
  WdMatrices wd(g);
  const auto cands = wd.candidate_periods();
  ASSERT_FALSE(cands.empty());
  for (std::size_t i = 1; i < cands.size(); ++i)
    EXPECT_LT(cands[i - 1], cands[i]);
}

TEST(WdMatrices, MemoryIsQuadratic) {
  RandomCircuitSpec spec;
  spec.gates = 100;
  spec.dffs = 25;
  spec.seed = 5;
  const Netlist nl = generate_random_circuit(spec);
  CellLibrary lib;
  RetimingGraph g(nl, lib);
  WdMatrices wd(g);
  const std::size_t n = g.vertex_count();
  EXPECT_GE(wd.memory_bytes(), n * n * (sizeof(std::int32_t) + sizeof(double)));
}

TEST(WdRetiming, FeasibilityMatchesDirectCheck) {
  const Netlist nl = test::tiny_pipeline();
  CellLibrary lib;
  RetimingGraph g(nl, lib);
  WdMatrices wd(g);
  // The pipeline's floor is 2 (see MinPeriod.PurePipelineCannotImprove).
  EXPECT_FALSE(wd_retime_for_period(g, wd, 1.9).has_value());
  const auto r = wd_retime_for_period(g, wd, 2.0);
  ASSERT_TRUE(r.has_value());
  ASSERT_TRUE(g.valid(*r));
  GraphTiming t(g, {2.0, 0.0, 0.0});
  t.compute(*r);
  for (VertexId v = 0; v < g.vertex_count(); ++v)
    EXPECT_LE(t.arrival(v), 2.0 + 1e-9);
}

TEST(WdRetiming, MinPeriodOnLoop) {
  // The 2-register 8-delay loop of the min-period tests: optimum 4.
  NetlistBuilder nb("loop");
  nb.input("x");
  nb.dff("s1", "g6");
  nb.dff("s2", "s1");
  nb.gate("g1", CellType::kBuf, {"s2"});
  nb.gate("g2", CellType::kBuf, {"g1"});
  nb.gate("g3", CellType::kBuf, {"g2"});
  nb.gate("g4", CellType::kBuf, {"g3"});
  nb.gate("g5", CellType::kBuf, {"g4"});
  nb.gate("g6", CellType::kXor, {"g5", "x"});
  nb.output("s2");
  const Netlist nl = nb.build();
  CellLibrary lib;
  RetimingGraph g(nl, lib);
  WdMatrices wd(g);
  const auto res = wd_min_period(g, wd);
  EXPECT_DOUBLE_EQ(res.period, 4.0);
  ASSERT_TRUE(g.valid(res.r));
}

class WdCrossCheck : public ::testing::TestWithParam<int> {};

TEST_P(WdCrossCheck, FeasUpperBoundsTheExactOptimum) {
  RandomCircuitSpec spec;
  spec.gates = 120;
  spec.dffs = 30;
  spec.inputs = 6;
  spec.outputs = 6;
  spec.mean_fanin = 1.9;
  spec.seed = static_cast<std::uint64_t>(GetParam()) * 7368787ULL;
  const Netlist nl = generate_random_circuit(spec);
  CellLibrary lib;
  RetimingGraph g(nl, lib);

  WdMatrices wd(g);
  const auto exact = wd_min_period(g, wd);

  MinPeriodRetimer feas(g, {});
  const auto approx = feas.minimize();

  // The W/D result is the exact optimum of serelin's boundary-constrained
  // model. FEAS moves registers only backward, so in cones that need
  // forward moves (registers pushed toward primary outputs) it can settle
  // above the optimum — it is the scalable O(|E|)-memory upper bound, the
  // W/D path the Θ(|V|²) exact reference. Sound invariants: FEAS is never
  // below the optimum, the exact retiming truly meets its period, and the
  // gap stays within the structural factor observed across the suite.
  EXPECT_GE(approx.period, exact.period - 1e-6) << "FEAS beat the optimum?";
  EXPECT_LE(approx.period, 2.0 * exact.period);
  GraphTiming t(g, {exact.period, 0.0, 0.0});
  t.compute(exact.r);
  for (VertexId v = 0; v < g.vertex_count(); ++v)
    EXPECT_LE(t.arrival(v), exact.period + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WdCrossCheck, ::testing::Range(1, 9));

}  // namespace
}  // namespace serelin
