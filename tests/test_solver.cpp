#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/closure_solver.hpp"
#include "core/initializer.hpp"
#include "core/solver.hpp"
#include "gen/random_circuit.hpp"
#include "helpers.hpp"
#include "netlist/builder.hpp"
#include "sim/graph_sim.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"

namespace serelin {
namespace {

// Two half-observable registers feed an AND whose output is further masked:
// moving the registers forward across the AND merges them (2 -> 1) and
// almost halves their observability. The canonical positive-gain move.
Netlist merge_circuit() {
  NetlistBuilder nb("merge");
  nb.input("x");
  nb.input("y");
  nb.input("m");
  nb.gate("p", CellType::kBuf, {"x"});
  nb.gate("q", CellType::kBuf, {"y"});
  nb.dff("fa", "p");
  nb.dff("fb", "q");
  nb.gate("g", CellType::kAnd, {"fa", "fb"});
  nb.gate("h", CellType::kAnd, {"g", "m"});
  nb.output("h");
  return nb.build();
}

struct MergeFixture {
  MergeFixture()
      : nl(merge_circuit()), g(nl, lib), gains(test::gains_for(g, nl)) {}
  CellLibrary lib;
  Netlist nl;
  RetimingGraph g;
  ObsGains gains;
};

TEST(Solver, GainsMatchEquationFive) {
  MergeFixture fx;
  // b(v) must equal the finite difference of the Eq. (5) objective under a
  // unit forward move of v.
  const Retiming r0 = fx.g.zero_retiming();
  const std::int64_t base = register_observability(fx.g, r0, fx.gains);
  for (VertexId v : fx.g.gate_vertices()) {
    Retiming r1 = r0;
    r1[v] -= 1;
    const std::int64_t moved = register_observability(fx.g, r1, fx.gains);
    EXPECT_EQ(base - moved, fx.gains.gain[v])
        << fx.nl.node(fx.g.vertex(v).node).name;
  }
}

TEST(Solver, MergesRegistersWhenElwAllows) {
  MergeFixture fx;
  SolverOptions opt;
  opt.timing = {20.0, 0.0, 2.0};
  opt.rmin = 1.0;  // short path after the move: d(h) = 2 >= 1
  opt.enforce_elw = true;
  MinObsWinSolver solver(fx.g, fx.gains, opt);
  const Retiming r0 = fx.g.zero_retiming();
  const SolverResult res = solver.solve(r0);
  EXPECT_FALSE(res.exited_early);
  ASSERT_TRUE(fx.g.valid(res.r));
  EXPECT_GT(res.objective_gain, 0);
  // The register moved across g: g's label dropped.
  EXPECT_LT(res.r[fx.g.vertex_of(fx.nl.find("g"))], 0);
  // Objective accounting is exact.
  EXPECT_EQ(register_observability(fx.g, r0, fx.gains) -
                register_observability(fx.g, res.r, fx.gains),
            res.objective_gain);
  // Register count drops 2 -> 1 (the area by-product the paper reports).
  EXPECT_LT(fx.g.shared_register_count(res.r),
            fx.g.shared_register_count(r0));
  EXPECT_GE(res.commits, 1);
}

TEST(Solver, ElwConstraintBlocksTheMerge) {
  MergeFixture fx;
  SolverOptions opt;
  opt.timing = {20.0, 0.0, 2.0};
  // After the move the registers would sit on (g,h) with short path
  // d(h) + 0 = 2 < 3, and the critical short path ends at the PO sink:
  // unfixable, so MinObsWin must refuse the move entirely.
  opt.rmin = 3.0;
  MinObsWinSolver win(fx.g, fx.gains, opt);
  const Retiming r0 = fx.g.zero_retiming();
  const SolverResult blocked = win.solve(r0);
  EXPECT_FALSE(blocked.exited_early);
  EXPECT_EQ(blocked.objective_gain, 0);
  EXPECT_EQ(blocked.r, r0);
  // The MinObs baseline (no P2') happily takes the gain — this asymmetry
  // is the paper's s38417 story.
  opt.enforce_elw = false;
  MinObsWinSolver ref(fx.g, fx.gains, opt);
  EXPECT_GT(ref.solve(r0).objective_gain, 0);
}

TEST(Solver, TightPeriodBlocksViaP1) {
  MergeFixture fx;
  SolverOptions opt;
  // Period exactly fits the current stages (x->p = 1, g->h->po = 4, with
  // setup 0); after the merge the path p..g or g..h..po would stretch.
  opt.timing = {4.0, 0.0, 2.0};
  opt.rmin = 0.0;
  opt.enforce_elw = true;
  MinObsWinSolver solver(fx.g, fx.gains, opt);
  const SolverResult res = solver.solve(fx.g.zero_retiming());
  // Moving g forward makes path fa->g->h->po = 2+2 = 4 <= 4 still fine,
  // but then the register is on (g,h)... P1 check: p's path p->(reg) fine.
  // With period 4 the move is actually legal; with period 3 it is not.
  SolverOptions tight = opt;
  tight.timing = {3.0, 0.0, 2.0};
  // At period 3 the initial circuit itself is infeasible (g->h->po = 4),
  // so the solver exits early and returns the start unchanged.
  MinObsWinSolver tight_solver(fx.g, fx.gains, tight);
  const SolverResult tr = tight_solver.solve(fx.g.zero_retiming());
  EXPECT_TRUE(tr.exited_early);
  EXPECT_FALSE(res.exited_early);
}

TEST(Solver, ExitsEarlyOnInfeasibleStart) {
  NetlistBuilder nb("regpo");
  nb.input("x");
  nb.gate("gate", CellType::kBuf, {"x"});
  nb.dff("d", "gate");
  nb.output("d");  // registered PO: short path 0
  const Netlist nl = nb.build();
  CellLibrary lib;
  RetimingGraph g(nl, lib);
  const ObsGains gains = test::gains_for(g, nl);
  SolverOptions opt;
  opt.timing = {10.0, 0.0, 2.0};
  opt.rmin = 1.0;  // impossible: the register feeds the PO directly
  MinObsWinSolver solver(g, gains, opt);
  const SolverResult res = solver.solve(g.zero_retiming());
  EXPECT_TRUE(res.exited_early);
  EXPECT_EQ(res.r, g.zero_retiming());
}

TEST(Solver, MinObsBaselineNeverWorseThanWin) {
  // MinObsWin solves a more constrained problem, so its gain can never
  // exceed the MinObs gain on the same instance.
  for (int seed = 1; seed <= 6; ++seed) {
    RandomCircuitSpec spec;
    spec.gates = 120;
    spec.dffs = 30;
    spec.inputs = 6;
    spec.outputs = 6;
    spec.mean_fanin = 2.0;
    spec.seed = static_cast<std::uint64_t>(seed) * 6364136223846793005ULL;
    const Netlist nl = generate_random_circuit(spec);
    CellLibrary lib;
    RetimingGraph g(nl, lib);
    const InitResult init = initialize_retiming(g, {});
    SimConfig cfg;
    cfg.patterns = 512;
    cfg.frames = 6;
    const ObsGains gains = test::gains_for(g, nl, cfg);
    SolverOptions opt;
    opt.timing = init.timing;
    opt.rmin = init.rmin;
    const SolverResult win = MinObsWinSolver(g, gains, opt).solve(init.r);
    opt.enforce_elw = false;
    const SolverResult ref = MinObsWinSolver(g, gains, opt).solve(init.r);
    EXPECT_GE(ref.objective_gain, win.objective_gain) << "seed " << seed;
  }
}

// Registers fa and fb sit behind k-buffer chains a1..ak and b1..bk that
// meet at g = AND(ak, bk); h = AND(g, m) drives the PO. Carrying both
// registers across g means first carrying each across its whole chain:
// k P0 implications per side, every one through a register-free edge (the
// forward latch chains of retiming test suites). Hand-set gains make the
// whole move worth 10 − 2k, so it pays for k <= 4 and not beyond.
Netlist p0_chain_circuit(int k) {
  NetlistBuilder nb("p0_chain");
  nb.input("x");
  nb.input("y");
  nb.input("m");
  nb.dff("fa", "x");
  nb.dff("fb", "y");
  std::string a = "fa";
  std::string b = "fb";
  for (int i = 1; i <= k; ++i) {
    nb.gate("a" + std::to_string(i), CellType::kBuf, {a});
    nb.gate("b" + std::to_string(i), CellType::kBuf, {b});
    a = "a" + std::to_string(i);
    b = "b" + std::to_string(i);
  }
  nb.gate("g", CellType::kAnd, {a, b});
  nb.gate("h", CellType::kAnd, {"g", "m"});
  nb.output("h");
  return nb.build();
}

class SolverP0Chain : public ::testing::TestWithParam<int> {};

TEST_P(SolverP0Chain, OneProbePerCommitAndClosureSolverAgrees) {
  const int k = GetParam();
  const Netlist nl = p0_chain_circuit(k);
  CellLibrary lib;
  RetimingGraph g(nl, lib);
  ObsGains gains;  // the solvers read only b(v)
  gains.gain.assign(g.vertex_count(), 0);
  gains.gain[g.vertex_of(nl.find("g"))] = 10;
  for (int i = 1; i <= k; ++i) {
    gains.gain[g.vertex_of(nl.find("a" + std::to_string(i)))] = -1;
    gains.gain[g.vertex_of(nl.find("b" + std::to_string(i)))] = -1;
  }
  SolverOptions opt;
  opt.timing = {40.0, 0.0, 2.0};
  opt.rmin = 1.0;
  const Retiming r0 = g.zero_retiming();
  const MetricsSnapshot before = metrics_snapshot();
  const SolverResult res = MinObsWinSolver(g, gains, opt).solve(r0);
  const MetricsSnapshot work = metrics_snapshot() - before;
  ASSERT_FALSE(res.exited_early);
  // The P0 closure carries both registers down their chains before the
  // first tentative move, so every timing probe commits.
  EXPECT_EQ(res.iterations, res.commits);
  EXPECT_EQ(res.commits, k <= 4 ? 1 : 0);
  EXPECT_EQ(res.objective_gain, std::max(0, 10 - 2 * k));
  if (metrics_compiled_in()) {
    EXPECT_EQ(work[Counter::kSolverIterations], res.iterations);
    EXPECT_GE(work[Counter::kSolverP0Folds], 2 * k);  // one per chain edge
  }
  EXPECT_EQ(res.r, ClosureSolver(g, gains, opt).solve(r0).r);
}

INSTANTIATE_TEST_SUITE_P(ChainLengths, SolverP0Chain, ::testing::Range(1, 7));

class SolverProperty : public ::testing::TestWithParam<int> {};

TEST_P(SolverProperty, ResultIsFeasibleMonotoneAndEquivalent) {
  RandomCircuitSpec spec;
  spec.gates = 80;
  spec.dffs = 20;
  spec.inputs = 6;
  spec.outputs = 6;
  spec.mean_fanin = 1.9;
  spec.seed = static_cast<std::uint64_t>(GetParam()) * 1099511628211ULL;
  const Netlist nl = generate_random_circuit(spec);
  CellLibrary lib;
  RetimingGraph g(nl, lib);
  const InitResult init = initialize_retiming(g, {});
  SimConfig cfg;
  cfg.patterns = 512;
  cfg.frames = 5;
  const ObsGains gains = test::gains_for(g, nl, cfg);
  SolverOptions opt;
  opt.timing = init.timing;
  opt.rmin = init.rmin;
  const SolverResult res = MinObsWinSolver(g, gains, opt).solve(init.r);
  if (res.exited_early) {
    EXPECT_EQ(res.r, init.r);
    return;
  }
  ASSERT_TRUE(g.valid(res.r));
  EXPECT_TRUE(test::feasible(g, res.r, opt.timing, opt.rmin));
  // Monotone decrease relative to the start.
  for (VertexId v = 0; v < g.vertex_count(); ++v)
    EXPECT_LE(res.r[v], init.r[v]);
  // Objective accounting matches Eq. (5) exactly.
  EXPECT_EQ(register_observability(g, init.r, gains) -
                register_observability(g, res.r, gains),
            res.objective_gain);
  EXPECT_GE(res.objective_gain, 0);
  // Functional equivalence to the initial circuit via transported state.
  const EdgeState s0 = zero_edge_state(g, init.r, 1);
  const EdgeState s1 = decompose_forward(g, init.r, res.r, s0, 1);
  GraphStateSimulator a(g, init.r, s0, 1);
  GraphStateSimulator b(g, res.r, s1, 1);
  Rng ra(spec.seed), rb(spec.seed);
  for (int c = 0; c < 12; ++c) {
    a.randomize_sources(ra);
    b.randomize_sources(rb);
    a.cycle();
    b.cycle();
    ASSERT_EQ(a.sink_values(), b.sink_values()) << "cycle " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverProperty, ::testing::Range(1, 13));

}  // namespace
}  // namespace serelin
