#include <gtest/gtest.h>

#include "gen/random_circuit.hpp"
#include "helpers.hpp"
#include "netlist/builder.hpp"
#include "support/strings.hpp"
#include "timing/elw.hpp"
#include "timing/graph_timing.hpp"

namespace serelin {
namespace {

TEST(Elw, PipelineWindows) {
  const Netlist nl = test::tiny_pipeline();
  CellLibrary lib;
  const TimingParams tp{10.0, 0.0, 2.0};
  const ElwResult elw = compute_elw(nl, lib, tp);
  // c drives the PO: base window [10, 12].
  EXPECT_EQ(elw.elw[nl.find("c")], IntervalSet(10.0, 12.0));
  // b drives the register: base window.
  EXPECT_EQ(elw.elw[nl.find("b")], IntervalSet(10.0, 12.0));
  // a's glitches pass through b (delay 1): [9, 11].
  EXPECT_EQ(elw.elw[nl.find("a")], IntervalSet(9.0, 11.0));
  // x through a and b: [8, 10].
  EXPECT_EQ(elw.elw[nl.find("x")], IntervalSet(8.0, 10.0));
  // The register's stored-bit upsets re-latch through c: [9, 11].
  EXPECT_EQ(elw.elw[nl.find("ff")], IntervalSet(9.0, 11.0));
}

TEST(Elw, MixedFanoutUnions) {
  // b drives a register directly AND a 2-gate path to another register:
  // ELW(b) = [Φ,Φ+2] ∪ [Φ-2,Φ] = [Φ-2, Φ+2].
  NetlistBuilder nb("mixed");
  nb.input("x");
  nb.gate("b", CellType::kBuf, {"x"});
  nb.dff("d0", "b");
  nb.gate("p1", CellType::kBuf, {"b"});
  nb.gate("p2", CellType::kBuf, {"p1"});
  nb.dff("d1", "p2");
  nb.gate("o", CellType::kAnd, {"d0", "d1"});
  nb.output("o");
  const Netlist nl = nb.build();
  CellLibrary lib;
  const ElwResult elw = compute_elw(nl, lib, {10.0, 0.0, 2.0});
  EXPECT_EQ(elw.elw[nl.find("b")], IntervalSet(8.0, 12.0));
  EXPECT_DOUBLE_EQ(elw.elw[nl.find("b")].measure(), 4.0);
}

TEST(Elw, DisjointWindows) {
  // A long and a short path whose shifted windows do not touch: the ELW
  // has two intervals (the paper's multi-interval remark under Eq. 2).
  NetlistBuilder nb("disjoint");
  nb.input("x");
  nb.gate("b", CellType::kBuf, {"x"});
  nb.dff("d0", "b");
  std::string prev = "b";
  for (int i = 0; i < 5; ++i) {
    nb.gate(numbered("q", i), CellType::kBuf, {prev});
    prev = numbered("q", i);
  }
  nb.dff("d1", prev);
  nb.gate("o", CellType::kAnd, {"d0", "d1"});
  nb.output("o");
  const Netlist nl = nb.build();
  CellLibrary lib;
  const ElwResult elw = compute_elw(nl, lib, {20.0, 0.0, 2.0});
  const IntervalSet& w = elw.elw[nl.find("b")];
  // Direct: [20,22]; through 5 buffers: [15,17].
  EXPECT_EQ(w.size(), 2u);
  EXPECT_DOUBLE_EQ(w.measure(), 4.0);
  EXPECT_DOUBLE_EQ(w.left(), 15.0);
  EXPECT_DOUBLE_EQ(w.right(), 22.0);
}

TEST(Elw, DanglingConeIsEmpty) {
  NetlistBuilder nb("dangle");
  nb.input("x");
  nb.gate("used", CellType::kBuf, {"x"});
  nb.gate("dead", CellType::kNot, {"x"});  // no path to any PO/register
  nb.output("used");
  const Netlist nl = nb.build();
  CellLibrary lib;
  const ElwResult elw = compute_elw(nl, lib, {10.0, 0.0, 2.0});
  EXPECT_TRUE(elw.elw[nl.find("dead")].empty());
  EXPECT_FALSE(elw.elw[nl.find("used")].empty());
}

TEST(Elw, MeasureCapsAtPeriod) {
  ElwResult r;
  r.elw.assign(1, IntervalSet(0.0, 50.0));
  EXPECT_DOUBLE_EQ(r.measure(0, 10.0), 10.0);
}

// Theorem 1 of the paper: the graph labels L(v), R(v) equal the leftmost /
// rightmost boundaries of the exact interval ELW — checked on random
// circuits across seeds.
class Theorem1 : public ::testing::TestWithParam<int> {};

TEST_P(Theorem1, BoundariesMatchIntervalElw) {
  RandomCircuitSpec spec;
  spec.gates = 120;
  spec.dffs = 25;
  spec.inputs = 6;
  spec.outputs = 6;
  spec.mean_fanin = 1.9;
  spec.seed = static_cast<std::uint64_t>(GetParam());
  const Netlist nl = generate_random_circuit(spec);
  CellLibrary lib;
  RetimingGraph g(nl, lib);
  const TimingParams tp{50.0, 0.0, 2.0};
  const ElwResult elw = compute_elw(nl, lib, tp);
  GraphTiming t(g, tp);
  t.compute(g.zero_retiming());
  int checked = 0;
  for (NodeId id = 0; id < nl.node_count(); ++id) {
    const Node& n = nl.node(id);
    if (n.type == CellType::kDff) continue;  // collapsed into edges
    const VertexId v = g.vertex_of(id);
    if (v == kNullVertex || elw.elw[id].empty()) continue;
    EXPECT_NEAR(elw.elw[id].left(), t.L(v), 1e-9) << n.name;
    EXPECT_NEAR(elw.elw[id].right(), t.R(v), 1e-9) << n.name;
    // And R(v) - L(v) bounds the measure (Theorem 1 property 1 corollary).
    EXPECT_LE(elw.elw[id].measure(), t.R(v) - t.L(v) + 1e-9) << n.name;
    EXPECT_GT(t.R(v), t.L(v)) << n.name;
    ++checked;
  }
  EXPECT_GT(checked, 50);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Theorem1, ::testing::Range(1, 9));

}  // namespace
}  // namespace serelin
