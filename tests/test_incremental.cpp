// Tests of incremental timing relabeling (GraphTiming::update) and the
// dirty-set constraint scan: update() must be bit-identical to a fresh
// compute() over arbitrary valid move sequences, must reject P0-invalid
// retimings without touching the labels, and the delta-driven
// find_violations must reproduce the full-scan batch whenever the labeled
// baseline was violation-free (the solver invariant).
#include <gtest/gtest.h>

#include <algorithm>
#include <span>

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
  const TimingDelta& d = t.update(r);
  EXPECT_TRUE(d.full);
  GraphTiming ref(g, {4.0, 0.0, 1.0});
  ref.compute(r);
  expect_labels_equal(g, t, ref, "first update");
}

TEST(IncrementalTiming, NoOpUpdateReportsEmptyDelta) {
  const Netlist nl = test::tiny_ring();
  CellLibrary lib;
  RetimingGraph g(nl, lib);
  GraphTiming t(g, {4.0, 0.0, 1.0});
  Retiming r = g.zero_retiming();
  t.compute(r);
  const TimingDelta& d = t.update(r);
  EXPECT_FALSE(d.full);
  EXPECT_TRUE(d.wr_changed.empty());
  EXPECT_TRUE(d.relabeled.empty());
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
    const TimingDelta& d = incr.update(r, std::span<const VertexId>(&v, 1));
    ASSERT_FALSE(d.full);
    fresh.compute(r);
    expect_labels_equal(g, incr, fresh, "walk step");
  }
  ASSERT_GT(applied, 10) << "walk never moved — the fixture is degenerate";
}

TEST_P(IncrementalSeeds, HintlessDiffMatchesHintedUpdate) {
  const Netlist nl = generate_random_circuit(seeded_spec(GetParam()));
  CellLibrary lib;
  RetimingGraph g(nl, lib);
  const TimingParams tp{60.0, 0.0, 2.0};

  GraphTiming hinted(g, tp);
  GraphTiming hintless(g, tp);
  Retiming r = g.zero_retiming();
  hinted.compute(r);
  hintless.compute(r);

  Rng rng = stream_rng(seeded_spec(GetParam()).seed, 13);
  const auto& gates = g.gate_vertices();
  for (int step = 0; step < 60; ++step) {
    const VertexId v = gates[rng.next() % gates.size()];
    const bool inc = rng.chance(0.5);
    if (!move_valid(g, r, v, inc)) continue;
    r[v] += inc ? 1 : -1;
    const TimingDelta& dh = hinted.update(r, std::span<const VertexId>(&v, 1));
    const std::vector<EdgeId> wr_h = dh.wr_changed;
    const std::vector<VertexId> rel_h = dh.relabeled;
    const TimingDelta& dn = hintless.update(r);
    EXPECT_EQ(wr_h, dn.wr_changed);
    EXPECT_EQ(rel_h, dn.relabeled);
    expect_labels_equal(g, hinted, hintless, "hint vs diff");
  }
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
  EXPECT_THROW(t.update(broken, std::span<const VertexId>(&bad, 1)),
               PreconditionError);
  EXPECT_THROW(t.update(broken), PreconditionError);
  expect_labels_equal(g, t, ref, "after rejected update");

  // A valid update after the rejected ones still matches a fresh compute.
  VertexId good = kNullVertex;
  for (VertexId v : gates)
    if (move_valid(g, r, v, /*inc=*/true)) {
      good = v;
      break;
    }
  ASSERT_NE(good, kNullVertex);
  r[good] += 1;
  const TimingDelta& d = t.update(r, std::span<const VertexId>(&good, 1));
  EXPECT_FALSE(d.full);
  EXPECT_FALSE(d.wr_changed.empty());
  ref.compute(r);
  expect_labels_equal(g, t, ref, "valid update after rejection");
}

TEST_P(IncrementalSeeds, DirtyViolationScanMatchesFullScan) {
  // Solver-shaped usage: from a violation-free baseline, apply one
  // tentative move and compare the delta-driven batch against the full
  // scan. Params are walked until the zero retiming is clean so the
  // dirty-scan precondition genuinely holds.
  const Netlist nl = generate_random_circuit(seeded_spec(GetParam()));
  CellLibrary lib;
  RetimingGraph g(nl, lib);

  Retiming r = g.zero_retiming();
  TimingParams tp{40.0, 0.0, 2.0};
  double rmin = 0.5;
  GraphTiming t(g, tp);
  t.compute(r);
  // Loosen until feasible: grow the period for P1, shrink rmin for P2.
  for (int i = 0; i < 40; ++i) {
    ConstraintChecker probe(g, tp, rmin);
    if (!probe.find_violation(r, t).has_value()) break;
    tp = TimingParams{tp.period * 1.5, tp.setup, tp.hold};
    rmin *= 0.5;
    t = GraphTiming(g, tp);
    t.compute(r);
  }
  ConstraintChecker checker(g, tp, rmin);
  ASSERT_FALSE(checker.find_violation(r, t).has_value())
      << "could not construct a violation-free baseline";

  Rng rng = stream_rng(seeded_spec(GetParam()).seed, 23);
  const auto& gates = g.gate_vertices();
  std::vector<char> movers(g.vertex_count(), 0);
  int tried = 0;
  for (int step = 0; step < 200 && tried < 40; ++step) {
    const VertexId v = gates[rng.next() % gates.size()];
    const bool inc = rng.chance(0.5);
    if (!move_valid(g, r, v, inc)) continue;
    ++tried;
    Retiming cand = r;
    cand[v] += inc ? 1 : -1;
    std::fill(movers.begin(), movers.end(), 0);
    movers[v] = 1;

    const TimingDelta& d = t.update(cand, std::span<const VertexId>(&v, 1));
    const auto dirty = checker.find_violations(cand, t, d, movers);
    const auto full = checker.find_violations(cand, t, movers);
    ASSERT_EQ(dirty.size(), full.size()) << "step " << step;
    for (std::size_t i = 0; i < full.size(); ++i) {
      EXPECT_EQ(dirty[i].kind, full[i].kind) << "step " << step;
      EXPECT_EQ(dirty[i].p, full[i].p) << "step " << step;
      EXPECT_EQ(dirty[i].q, full[i].q) << "step " << step;
      EXPECT_EQ(dirty[i].w, full[i].w) << "step " << step;
      EXPECT_EQ(dirty[i].alt_q, full[i].alt_q) << "step " << step;
      EXPECT_EQ(dirty[i].alt_w, full[i].alt_w) << "step " << step;
    }
    // Without movers every violation is attributable, so the single form
    // must name the batch's first entry.
    const auto single = checker.find_violation(cand, t);
    const auto batch = checker.find_violations(cand, t, {});
    ASSERT_EQ(single.has_value(), !batch.empty()) << "step " << step;
    if (single) {
      EXPECT_EQ(single->kind, batch[0].kind) << "step " << step;
      EXPECT_EQ(single->p, batch[0].p) << "step " << step;
      EXPECT_EQ(single->q, batch[0].q) << "step " << step;
      EXPECT_EQ(single->w, batch[0].w) << "step " << step;
      EXPECT_EQ(single->alt_q, batch[0].alt_q) << "step " << step;
      EXPECT_EQ(single->alt_w, batch[0].alt_w) << "step " << step;
    }

    if (full.empty()) {
      r = cand;  // keep the move: baseline stays violation-free
    } else {
      // Revert and roll the labels back so the next delta is measured
      // against the feasible baseline (mirrors MinObsWinSolver).
      t.update(r, std::span<const VertexId>(&v, 1));
    }
  }
  ASSERT_GT(tried, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalSeeds, ::testing::Range(1, 7));

}  // namespace
}  // namespace serelin
