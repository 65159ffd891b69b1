// Tests of incremental timing relabeling (GraphTiming::update) and the
// violation scans on its labels: update() must be bit-identical to a fresh
// compute() over arbitrary valid move sequences, must reject P0-invalid
// retimings without touching the labels, and find_violation must name the
// head of the batch find_violations reports.
#include <gtest/gtest.h>

#include <algorithm>

#include "gen/random_circuit.hpp"
#include "helpers.hpp"
#include "netlist/cell_library.hpp"
#include "support/check.hpp"
#include "support/parallel.hpp"
#include "timing/constraints.hpp"
#include "timing/graph_timing.hpp"

namespace serelin {
namespace {

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

TEST(IncrementalTiming, FirstUpdateFallsBackToFullCompute) {
  const Netlist nl = test::tiny_ring();
  CellLibrary lib;
  RetimingGraph g(nl, lib);
  GraphTiming t(g, {4.0, 0.0, 1.0});
  const Retiming r = g.zero_retiming();
  t.update(r);
  GraphTiming ref(g, {4.0, 0.0, 1.0});
  ref.compute(r);
  expect_labels_equal(g, t, ref, "first update");
}

class IncrementalSeeds : public ::testing::TestWithParam<int> {};

TEST_P(IncrementalSeeds, RandomWalkMatchesFreshComputeExactly) {
  const Netlist nl = generate_random_circuit(seeded_spec(GetParam()));
  CellLibrary lib;
  RetimingGraph g(nl, lib);
  const TimingParams tp{60.0, 0.0, 2.0};

  GraphTiming incr(g, tp);
  GraphTiming fresh(g, tp);
  Retiming r = g.zero_retiming();
  incr.compute(r);

  Rng rng = stream_rng(seeded_spec(GetParam()).seed, 7);
  const auto& gates = g.gate_vertices();
  int applied = 0;
  for (int step = 0; step < 300; ++step) {
    const VertexId v = gates[rng.next() % gates.size()];
    const bool inc = rng.chance(0.5);
    if (!move_valid(g, r, v, inc)) continue;
    r[v] += inc ? 1 : -1;
    ++applied;
    incr.update(r);
    fresh.compute(r);
    expect_labels_equal(g, incr, fresh, "walk step");
  }
  ASSERT_GT(applied, 10) << "walk never moved — the fixture is degenerate";
}

TEST_P(IncrementalSeeds, UpdateRejectsP0InvalidRetiming) {
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
  EXPECT_THROW(t.update(broken), PreconditionError);
  expect_labels_equal(g, t, ref, "after rejected update");

  // A valid update after the rejected one still matches a fresh compute.
  VertexId good = kNullVertex;
  for (VertexId v : gates)
    if (move_valid(g, r, v, /*inc=*/true)) {
      good = v;
      break;
    }
  ASSERT_NE(good, kNullVertex);
  r[good] += 1;
  t.update(r);
  ref.compute(r);
  expect_labels_equal(g, t, ref, "valid update after rejection");
}

TEST_P(IncrementalSeeds, SingleViolationIsTheBatchHead) {
  // Solver-shaped usage: walk tentative single-vertex moves on
  // incrementally relabeled timing, keeping the clean ones and reverting
  // the rest without relabeling (as MinObsWinSolver does). The loose
  // params are loosened in small steps until the zero retiming is clean;
  // the tight ones (a shorter period, a larger rmin) keep the batches
  // non-empty. The predicates read only parameter-free labels, so both
  // checkers share one GraphTiming.
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
    t.update(cand);
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
