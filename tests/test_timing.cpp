#include <gtest/gtest.h>

#include <algorithm>

#include "gen/random_circuit.hpp"
#include "helpers.hpp"
#include "netlist/builder.hpp"
#include "rgraph/retiming_graph.hpp"
#include "support/check.hpp"
#include "support/parallel.hpp"
#include "timing/constraints.hpp"
#include "timing/graph_timing.hpp"

namespace serelin {
namespace {

class PipelineTiming : public ::testing::Test {
 protected:
  PipelineTiming()
      : nl_(test::tiny_pipeline()), g_(nl_, lib_), r_(g_.zero_retiming()) {}

  VertexId v(const char* name) const { return g_.vertex_of(nl_.find(name)); }

  CellLibrary lib_;
  Netlist nl_;
  RetimingGraph g_;
  Retiming r_;
};

TEST_F(PipelineTiming, ArrivalTimes) {
  GraphTiming t(g_, {10.0, 0.0, 2.0});
  t.compute(r_);
  EXPECT_DOUBLE_EQ(t.arrival(v("x")), 0.0);
  EXPECT_DOUBLE_EQ(t.arrival(v("a")), 1.0);
  EXPECT_DOUBLE_EQ(t.arrival(v("b")), 2.0);
  EXPECT_DOUBLE_EQ(t.arrival(v("c")), 1.0);  // register resets the path
}

TEST_F(PipelineTiming, MaxMinAfterAndLabels) {
  GraphTiming t(g_, {10.0, 0.0, 2.0});
  t.compute(r_);
  EXPECT_DOUBLE_EQ(t.max_after(v("c")), 0.0);  // drives the PO directly
  EXPECT_DOUBLE_EQ(t.max_after(v("b")), 0.0);  // register on its out-edge
  EXPECT_DOUBLE_EQ(t.max_after(v("a")), 1.0);  // through b to the register
  EXPECT_DOUBLE_EQ(t.max_after(v("x")), 2.0);
  EXPECT_DOUBLE_EQ(t.min_after(v("a")), 1.0);
  EXPECT_DOUBLE_EQ(t.L(v("a")), 10.0 - 1.0);
  EXPECT_DOUBLE_EQ(t.R(v("a")), 12.0 - 1.0);
}

TEST_F(PipelineTiming, CriticalWitnesses) {
  GraphTiming t(g_, {10.0, 0.0, 2.0});
  t.compute(r_);
  // The critical (only) path from a ends at b, whose out-edge holds the
  // register; from x likewise.
  EXPECT_EQ(t.lt(v("a")), v("b"));
  EXPECT_EQ(t.lt(v("x")), v("b"));
  EXPECT_EQ(t.rt(v("a")), v("b"));
  // b's own boundary is its registered out-edge.
  EXPECT_EQ(t.lt(v("b")), v("b"));
  const EdgeId be = t.crit_min_edge(v("a"));
  ASSERT_NE(be, kNullEdge);
  EXPECT_EQ(g_.edge(be).from, v("b"));
  EXPECT_EQ(g_.edge(be).to, v("c"));
}

TEST_F(PipelineTiming, RetimingChangesLabels) {
  Retiming r = r_;
  r[v("c")] = -1;  // register moves past c
  GraphTiming t(g_, {10.0, 0.0, 2.0});
  t.compute(r);
  EXPECT_DOUBLE_EQ(t.arrival(v("c")), 3.0);  // now fed combinationally
  EXPECT_DOUBLE_EQ(t.max_after(v("b")), 1.0);  // through c to the register
  EXPECT_DOUBLE_EQ(t.max_after(v("a")), 2.0);
}

TEST_F(PipelineTiming, NoViolationsAtRelaxedPeriod) {
  ConstraintChecker checker(g_, {10.0, 0.0, 2.0}, 0.0);
  GraphTiming t(g_, {10.0, 0.0, 2.0});
  EXPECT_TRUE(checker.feasible(r_, t));
}

TEST_F(PipelineTiming, P1ViolationWitness) {
  const TimingParams tp{1.5, 0.0, 2.0};
  ConstraintChecker checker(g_, tp, 0.0);
  GraphTiming t(g_, tp);
  t.compute(r_);
  const auto viol = checker.find_violation(r_, t);
  ASSERT_TRUE(viol.has_value());
  EXPECT_EQ(viol->kind, ConstraintKind::kP1);
  EXPECT_EQ(viol->p, v("b"));  // lt of the violated vertex
  EXPECT_EQ(viol->w, 1);
}

TEST_F(PipelineTiming, P0ViolationWitness) {
  Retiming r = r_;
  r[v("c")] = -2;  // drains b->c below zero
  const TimingParams tp{10.0, 0.0, 2.0};
  ConstraintChecker checker(g_, tp, 0.0);
  // compute() rejects a P0-invalid retiming, so the labels describe the
  // valid base retiming; the P0 scan reads no labels.
  GraphTiming t(g_, tp);
  t.compute(r_);
  const auto viol = checker.find_violation(r, t);
  ASSERT_TRUE(viol.has_value());
  EXPECT_EQ(viol->kind, ConstraintKind::kP0);
  EXPECT_EQ(viol->p, v("c"));
  EXPECT_EQ(viol->q, v("b"));
  EXPECT_EQ(viol->w, 1);
}

TEST_F(PipelineTiming, P2ViolationBlocksAtSink) {
  // Short path from the register (through c, 1 unit) is below rmin = 2,
  // and the critical short path ends at the primary output: unfixable.
  const TimingParams tp{10.0, 0.0, 2.0};
  ConstraintChecker checker(g_, tp, 2.0);
  GraphTiming t(g_, tp);
  t.compute(r_);
  const auto viol = checker.find_violation(r_, t);
  ASSERT_TRUE(viol.has_value());
  EXPECT_EQ(viol->kind, ConstraintKind::kP2);
  EXPECT_EQ(viol->p, v("b"));
  EXPECT_EQ(g_.vertex(viol->q).kind, VertexKind::kSink);
}

TEST_F(PipelineTiming, P2SatisfiedAtLooseRmin) {
  const TimingParams tp{10.0, 0.0, 2.0};
  ConstraintChecker checker(g_, tp, 1.0);  // short path == 1 >= 1
  GraphTiming t(g_, tp);
  EXPECT_TRUE(checker.feasible(r_, t));
}

TEST(GraphTimingRing, FeedbackCycleLabels) {
  const Netlist nl = test::tiny_ring();
  CellLibrary lib;
  RetimingGraph g(nl, lib);
  GraphTiming t(g, {10.0, 0.0, 2.0});
  t.compute(g.zero_retiming());
  const VertexId inv1 = g.vertex_of(nl.find("inv1"));
  const VertexId buf1 = g.vertex_of(nl.find("buf1"));
  // Every gate in the ring is register-bounded on both sides.
  EXPECT_DOUBLE_EQ(t.max_after(inv1), 0.0);
  EXPECT_DOUBLE_EQ(t.max_after(buf1), 0.0);
  EXPECT_DOUBLE_EQ(t.arrival(inv1), 1.0);
}

TEST(GraphTimingRing, P2FixWitnessMovesRegistersPastHead) {
  // Ring with rmin = 2: inv1 (delay 1) alone between registers is short.
  const Netlist nl = test::tiny_ring();
  CellLibrary lib;
  RetimingGraph g(nl, lib);
  const TimingParams tp{10.0, 0.0, 2.0};
  ConstraintChecker checker(g, tp, 2.0);
  GraphTiming t(g, tp);
  t.compute(g.zero_retiming());
  const auto viol = checker.find_violation(g.zero_retiming(), t);
  ASSERT_TRUE(viol.has_value());
  EXPECT_EQ(viol->kind, ConstraintKind::kP2);
  EXPECT_TRUE(g.movable(viol->q) ||
              g.vertex(viol->q).kind == VertexKind::kSink);
}

TEST(GraphTimingMulti, ParallelPathsSpread) {
  // b branches: a short hop to a register and a long 3-gate path.
  NetlistBuilder nb("spread");
  nb.input("x");
  nb.gate("b", CellType::kBuf, {"x"});
  nb.dff("d0", "b");
  nb.gate("p1", CellType::kBuf, {"b"});
  nb.gate("p2", CellType::kBuf, {"p1"});
  nb.gate("p3", CellType::kBuf, {"p2"});
  nb.dff("d1", "p3");
  nb.gate("o", CellType::kAnd, {"d0", "d1"});
  nb.output("o");
  const Netlist nl = nb.build();
  CellLibrary lib;
  RetimingGraph g(nl, lib);
  GraphTiming t(g, {10.0, 0.0, 2.0});
  t.compute(g.zero_retiming());
  const VertexId b = g.vertex_of(nl.find("b"));
  EXPECT_DOUBLE_EQ(t.min_after(b), 0.0);  // direct register
  EXPECT_DOUBLE_EQ(t.max_after(b), 3.0);  // p1..p3 then register
  // R - L = (hold + setup) + spread = 2 + 3.
  EXPECT_DOUBLE_EQ(t.R(b) - t.L(b), 5.0);
}

// --- Seeded random circuits walked by single-vertex retiming moves -------

RandomCircuitSpec seeded_spec(int seed) {
  RandomCircuitSpec spec;
  spec.gates = 150;
  spec.dffs = 40;
  spec.inputs = 6;
  spec.outputs = 6;
  spec.mean_fanin = 1.9;
  spec.seed = static_cast<std::uint64_t>(seed) * 6700417ULL + 11;
  return spec;
}

/// A ±1 move of `v` keeps every incident w_r non-negative?
bool move_valid(const RetimingGraph& g, const Retiming& r, VertexId v,
                bool inc) {
  const auto& edges = inc ? g.out_edges(v) : g.in_edges(v);
  for (EdgeId e : edges)
    if (g.wr(e, r) < 1) return false;
  return true;
}

/// Bit-exact label comparison between two GraphTiming instances.
void expect_labels_equal(const RetimingGraph& g, const GraphTiming& a,
                         const GraphTiming& b, const char* what) {
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    ASSERT_EQ(a.arrival(v), b.arrival(v)) << what << " arrival v=" << v;
    ASSERT_EQ(a.max_after(v), b.max_after(v)) << what << " max_after v=" << v;
    ASSERT_EQ(a.min_after(v), b.min_after(v)) << what << " min_after v=" << v;
    ASSERT_EQ(a.lt(v), b.lt(v)) << what << " lt v=" << v;
    ASSERT_EQ(a.rt(v), b.rt(v)) << what << " rt v=" << v;
    ASSERT_EQ(a.crit_min_edge(v), b.crit_min_edge(v))
        << what << " crit_min_edge v=" << v;
  }
}

/// Seeded random circuits walked by incremental (single-vertex) retiming
/// moves.
class IncrementalSeeds : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalSeeds, ComputeRejectsP0InvalidRetiming) {
  const Netlist nl = generate_random_circuit(seeded_spec(GetParam()));
  CellLibrary lib;
  RetimingGraph g(nl, lib);
  const TimingParams tp{60.0, 0.0, 2.0};

  GraphTiming t(g, tp);
  GraphTiming ref(g, tp);
  Retiming r = g.zero_retiming();
  t.compute(r);
  ref.compute(r);

  // Find a gate whose decrement drains an in-edge below zero.
  const auto& gates = g.gate_vertices();
  VertexId bad = kNullVertex;
  for (VertexId v : gates)
    if (!move_valid(g, r, v, /*inc=*/false)) {
      bad = v;
      break;
    }
  ASSERT_NE(bad, kNullVertex);

  Retiming broken = r;
  broken[bad] -= 1;
  ASSERT_FALSE(g.valid(broken));
  EXPECT_THROW(t.compute(broken), PreconditionError);
  expect_labels_equal(g, t, ref, "after rejected compute");

  // A valid compute after the rejected one matches a fresh instance.
  VertexId good = kNullVertex;
  for (VertexId v : gates)
    if (move_valid(g, r, v, /*inc=*/true)) {
      good = v;
      break;
    }
  ASSERT_NE(good, kNullVertex);
  r[good] += 1;
  t.compute(r);
  GraphTiming fresh(g, tp);
  fresh.compute(r);
  expect_labels_equal(g, t, fresh, "valid compute after rejection");
}

TEST_P(IncrementalSeeds, SingleViolationIsTheBatchHead) {
  // Solver-shaped usage: walk tentative single-vertex moves, relabeling
  // each with compute(), keeping the clean ones and reverting the rest
  // without relabeling (as MinObsWinSolver does). The loose params are
  // loosened in small steps until the zero retiming is clean; the tight
  // ones (a shorter period, a larger rmin) keep the batches non-empty.
  // The predicates read only parameter-free labels, so both checkers
  // share one GraphTiming.
  const Netlist nl = generate_random_circuit(seeded_spec(GetParam()));
  CellLibrary lib;
  RetimingGraph g(nl, lib);

  Retiming r = g.zero_retiming();
  TimingParams tp{1.0, 0.0, 2.0};
  double rmin = 4.0;
  GraphTiming t(g, tp);
  t.compute(r);
  for (int i = 0; i < 400; ++i) {
    const auto viol = ConstraintChecker(g, tp, rmin).find_violation(r, t);
    if (!viol) break;
    if (viol->kind == ConstraintKind::kP2)
      rmin *= 0.9;
    else
      tp = TimingParams{tp.period * 1.05, tp.setup, tp.hold};
  }
  const ConstraintChecker loose(g, tp, rmin);
  ASSERT_FALSE(loose.find_violation(r, t).has_value())
      << "could not construct a violation-free baseline";
  const ConstraintChecker tight(
      g, TimingParams{tp.period * 0.8, tp.setup, tp.hold}, rmin * 2.0);

  std::vector<char> movers(g.vertex_count(), 0);
  // Checks one checker on the current labels; true when `cand` violates.
  const auto check = [&](const ConstraintChecker& checker,
                         const Retiming& cand, int step) {
    // The mover-filtered batch names each q once, and its entries are
    // attributed to the mover unless it is the one-entry fallback.
    const auto attributed = checker.find_violations(cand, t, movers);
    std::vector<char> seen_q(g.vertex_count(), 0);
    for (const Violation& viol : attributed) {
      EXPECT_FALSE(seen_q[viol.q]) << "step " << step;
      seen_q[viol.q] = 1;
      if (attributed.size() > 1) {
        EXPECT_TRUE(movers[viol.p]) << "step " << step;
      }
    }
    // Without movers every violation is attributable, so the single form
    // must name the batch's first entry.
    const auto single = checker.find_violation(cand, t);
    const auto batch = checker.find_violations(cand, t, {});
    EXPECT_EQ(single.has_value(), !batch.empty()) << "step " << step;
    EXPECT_EQ(batch.empty(), attributed.empty()) << "step " << step;
    if (!single || batch.empty()) return false;
    EXPECT_EQ(single->kind, batch[0].kind) << "step " << step;
    EXPECT_EQ(single->p, batch[0].p) << "step " << step;
    EXPECT_EQ(single->q, batch[0].q) << "step " << step;
    EXPECT_EQ(single->w, batch[0].w) << "step " << step;
    EXPECT_EQ(single->alt_q, batch[0].alt_q) << "step " << step;
    EXPECT_EQ(single->alt_w, batch[0].alt_w) << "step " << step;
    return true;
  };

  Rng rng = stream_rng(seeded_spec(GetParam()).seed, 23);
  const auto& gates = g.gate_vertices();
  int tried = 0;
  int kept = 0;
  int violating = 0;
  for (int step = 0; step < 2000 && tried < 40; ++step) {
    const VertexId v = gates[rng.next() % gates.size()];
    const bool inc = rng.chance(0.5);
    if (!move_valid(g, r, v, inc)) continue;
    ++tried;
    Retiming cand = r;
    cand[v] += inc ? 1 : -1;
    std::fill(movers.begin(), movers.end(), 0);
    movers[v] = 1;
    t.compute(cand);
    if (check(tight, cand, step)) ++violating;
    if (!check(loose, cand, step)) {
      r = cand;  // keep the clean move
      ++kept;
    }
  }
  EXPECT_EQ(tried, 40);
  EXPECT_GT(kept, 0) << "the walk never kept a move";
  EXPECT_GT(violating, 0) << "the walk never saw a violating move";
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalSeeds, ::testing::Range(1, 7));

}  // namespace
}  // namespace serelin
