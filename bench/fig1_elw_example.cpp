// Fig. 1 of the paper as a runnable artifact: a register relocation that
// *reduces* total register observability yet *worsens* the circuit SER by
// enlarging the error-latching windows of the upstream cone.
//
// The harness prints the before/after numbers the figure annotates —
// per-signal observability and ELW sizes, the Eq. (5) register
// observability, and the Eq. (4) SER — and then shows that Efficient
// MinObs takes the move while MinObsWin (under the Section-V R_min)
// refuses it.
#include <cstdio>

#include "core/initializer.hpp"
#include "core/objective.hpp"
#include "core/solver.hpp"
#include "gen/paper_examples.hpp"
#include "rgraph/apply.hpp"
#include "ser/ser_analyzer.hpp"
#include "sim/observability.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

int main() {
  using namespace serelin;
  const int kLadder = 10;
  const Netlist nl = fig1_circuit(kLadder);
  CellLibrary lib;
  RetimingGraph g(nl, lib);

  SimConfig cfg;
  cfg.patterns = 4096;
  cfg.frames = 8;
  ObservabilityAnalyzer obs_engine(nl, cfg);
  const ObsResult obs = obs_engine.run();
  const ObsGains gains = compute_gains(g, obs.obs, cfg.patterns);

  const TimingParams tp{30.0, 0.0, 2.0};
  Retiming moved = g.zero_retiming();
  moved[g.vertex_of(nl.find("G"))] = -1;
  const Netlist after = apply_retiming(g, moved, "fig1_moved");

  SerOptions ser;
  ser.timing = tp;
  ser.sim = cfg;
  const SerReport rep_before = analyze_ser(nl, lib, ser);
  const SerReport rep_after = analyze_ser(after, lib, ser);

  std::printf("Fig. 1 — the register move that lowers observability but "
              "worsens SER\n\n");
  std::printf("circuit: %d-rung ladder -> F -> [fd] -> G -> J -> PO "
              "(see src/gen/paper_examples.hpp)\n", kLadder);
  std::printf("move:    r(G) -= 1  (registers fd and dm relocate past G)\n\n");

  TextTable t({"signal", "obs", "|ELW| before", "|ELW| after"});
  auto add = [&](const std::string& name) {
    const NodeId id = nl.find(name);
    const NodeId id2 = after.find(name);
    t.add_row({name, fmt_fixed(rep_before.obs[id], 3),
               fmt_fixed(rep_before.elw.elw[id].measure(), 2),
               id2 == kNullNode
                   ? std::string("-")
                   : fmt_fixed(rep_after.elw.elw[id2].measure(), 2)});
  };
  for (int i = 1; i <= kLadder; ++i) add(numbered("a", i));
  add("F");
  add("G");
  add("J");
  std::printf("%s\n", t.str().c_str());

  std::printf("register observability (Eq. 5, K-scaled): %lld -> %lld\n",
              static_cast<long long>(
                  register_observability(g, g.zero_retiming(), gains)),
              static_cast<long long>(
                  register_observability(g, moved, gains)));
  std::printf("flip-flop count: %lld -> %lld\n",
              static_cast<long long>(
                  g.shared_register_count(g.zero_retiming())),
              static_cast<long long>(g.shared_register_count(moved)));
  std::printf("SER (Eq. 4): %s -> %s  (%s)\n\n",
              fmt_sci(rep_before.total).c_str(),
              fmt_sci(rep_after.total).c_str(),
              fmt_percent(rep_after.total / rep_before.total - 1.0).c_str());

  SolverOptions opt;
  opt.timing = tp;
  opt.rmin = min_short_path(g, g.zero_retiming(), tp);
  const SolverResult win = MinObsWinSolver(g, gains, opt).solve(
      g.zero_retiming());
  SolverOptions ref_opt = opt;
  ref_opt.enforce_elw = false;
  const SolverResult ref = MinObsWinSolver(g, gains, ref_opt).solve(
      g.zero_retiming());
  std::printf("MinObs   (no ELW constraint): gain %lld — takes the move\n",
              static_cast<long long>(ref.objective_gain));
  std::printf("MinObsWin (R_min = %.1f):      gain %lld — refuses it\n",
              opt.rmin, static_cast<long long>(win.objective_gain));
  return 0;
}
