// Executable versions of the paper's worked examples.
//
// Fig. 1: a register relocation that *reduces* register observability yet
// *worsens* the circuit SER by enlarging the error-latching windows of the
// upstream cone — the phenomenon motivating the ELW constraints.
//
// §III-B: "the observability of the combinational gates will not change
// after retiming" — checked by re-simulating the retimed netlist.
#include <gtest/gtest.h>

#include "core/initializer.hpp"
#include "gen/paper_examples.hpp"
#include "core/objective.hpp"
#include "core/solver.hpp"
#include "helpers.hpp"
#include "netlist/builder.hpp"
#include "rgraph/apply.hpp"
#include "ser/ser_analyzer.hpp"
#include "support/strings.hpp"

namespace serelin {
namespace {

constexpr int kLadder = 10;

struct Fig1 {
  Fig1() : nl(fig1_circuit(kLadder)), g(nl, lib) {
    SimConfig cfg;
    cfg.patterns = 2048;
    cfg.frames = 8;
    gains = test::gains_for(g, nl, cfg);
  }
  SerOptions ser_options() const {
    SerOptions o;
    o.timing = {30.0, 0.0, 2.0};
    o.sim.patterns = 2048;
    o.sim.frames = 8;
    return o;
  }
  CellLibrary lib;
  Netlist nl;
  RetimingGraph g;
  ObsGains gains;
};

TEST(Fig1Example, MoveLowersRegisterObservability) {
  Fig1 fx;
  const VertexId G = fx.g.vertex_of(fx.nl.find("G"));
  ASSERT_NE(G, kNullVertex);
  // The G move has positive logic-masking gain: obs(F) + obs(dm-driver)
  // exceeds obs(G).
  EXPECT_GT(fx.gains.gain[G], 0);
  Retiming moved = fx.g.zero_retiming();
  moved[G] = -1;
  ASSERT_TRUE(fx.g.valid(moved));
  EXPECT_LT(register_observability(fx.g, moved, fx.gains),
            register_observability(fx.g, fx.g.zero_retiming(), fx.gains));
  // And it even saves a register (2 -> 1 on G's pins).
  EXPECT_LT(fx.g.shared_register_count(moved),
            fx.g.shared_register_count(fx.g.zero_retiming()));
}

TEST(Fig1Example, MoveEnlargesUpstreamElws) {
  Fig1 fx;
  Retiming moved = fx.g.zero_retiming();
  moved[fx.g.vertex_of(fx.nl.find("G"))] = -1;
  const Netlist after = apply_retiming(fx.g, moved, "fig1_moved");
  const TimingParams tp{30.0, 0.0, 2.0};
  const ElwResult before_elw = compute_elw(fx.nl, fx.lib, tp);
  const ElwResult after_elw = compute_elw(after, fx.lib, tp);
  for (int i = 1; i <= kLadder; ++i) {
    const std::string a = numbered("a", i);
    EXPECT_GT(after_elw.elw[after.find(a)].measure(),
              before_elw.elw[fx.nl.find(a)].measure() + 0.5)
        << a;
  }
}

TEST(Fig1Example, MoveWorsensTotalSer) {
  Fig1 fx;
  Retiming moved = fx.g.zero_retiming();
  moved[fx.g.vertex_of(fx.nl.find("G"))] = -1;
  const Netlist after = apply_retiming(fx.g, moved, "fig1_moved");
  const SerReport before = analyze_ser(fx.nl, fx.lib, fx.ser_options());
  const SerReport worse = analyze_ser(after, fx.lib, fx.ser_options());
  // Lower register observability, yet higher SER: the paper's Fig. 1.
  EXPECT_GT(worse.total, before.total);
}

TEST(Fig1Example, MinObsTakesTheBadMoveMinObsWinRefuses) {
  Fig1 fx;
  SolverOptions opt;
  opt.timing = {30.0, 0.0, 2.0};
  opt.rmin = min_short_path(fx.g, fx.g.zero_retiming(), opt.timing);
  EXPECT_NEAR(opt.rmin, 3.0, 1e-9);  // s_i -> z -> z2 -> PO
  MinObsWinSolver win(fx.g, fx.gains, opt);
  const SolverResult win_res = win.solve(fx.g.zero_retiming());
  EXPECT_FALSE(win_res.exited_early);
  EXPECT_EQ(win_res.objective_gain, 0);  // refuses: new short path d(J)=2<3

  SolverOptions ref_opt = opt;
  ref_opt.enforce_elw = false;
  MinObsWinSolver ref(fx.g, fx.gains, ref_opt);
  const SolverResult ref_res = ref.solve(fx.g.zero_retiming());
  EXPECT_GT(ref_res.objective_gain, 0);  // the logic-masking-only move

  // End to end: MinObs worsens the SER, MinObsWin keeps the better one.
  const Netlist ref_nl = apply_retiming(fx.g, ref_res.r, "fig1_minobs");
  const Netlist win_nl = apply_retiming(fx.g, win_res.r, "fig1_minobswin");
  const double ser_ref = analyze_ser(ref_nl, fx.lib, fx.ser_options()).total;
  const double ser_win = analyze_ser(win_nl, fx.lib, fx.ser_options()).total;
  EXPECT_GT(ser_ref, ser_win);  // SER_ref / SER_new > 100%
}

TEST(PaperClaims, RetimingPreservesGateObservability) {
  // §III-B: gate observabilities are invariant under retiming (registers
  // are wires in the expanded circuit). Simulated estimates on the
  // original and the retimed netlist must agree per gate.
  Fig1 fx;
  Retiming moved = fx.g.zero_retiming();
  moved[fx.g.vertex_of(fx.nl.find("G"))] = -1;
  const Netlist after = apply_retiming(fx.g, moved, "fig1_moved");
  SimConfig cfg;
  cfg.patterns = 4096;
  cfg.frames = 8;
  const auto before_obs = ObservabilityAnalyzer(fx.nl, cfg).run().obs;
  const auto after_obs = ObservabilityAnalyzer(after, cfg).run().obs;
  for (NodeId id = 0; id < fx.nl.node_count(); ++id) {
    const Node& n = fx.nl.node(id);
    if (!is_gate(n.type)) continue;
    const NodeId id2 = after.find(n.name);
    ASSERT_NE(id2, kNullNode) << n.name;
    EXPECT_NEAR(after_obs[id2], before_obs[id], 0.06) << n.name;
  }
}

}  // namespace
}  // namespace serelin
