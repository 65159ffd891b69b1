// Reproduction of the paper's Table I: "Comparison of SER on ISCAS89 and
// ITC99 circuits".
//
// For every suite row (synthetic stand-ins matched to the published |V|,
// |E|, #FF — see DESIGN.md) the harness runs the full Section-VI flow and
// prints the same columns the paper reports:
//   Statistics:      |V|  |E|  #FF  Φ  SER
//   Efficient MinObs: Δ#FF_ref  t_ref  ΔSER_ref
//   MinObsWin:        Δ#FF_new  t_new  #J  ΔSER_new  SER_ref/SER_new
// plus the paper's published ΔSER columns for side-by-side comparison.
//
// Every row runs at the paper's fidelity: K=2048 patterns over n=15 time
// frames, after 30 warm-up frames. Set SERELIN_TABLE1_MAXV=<n> to skip the
// rows with more than n vertices.
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "flow/experiment.hpp"
#include "gen/paper_suite.hpp"
#include "support/stopwatch.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

namespace {

/// The integer value of environment variable `name`, or `fallback` when it
/// is unset; anything but a whole non-negative int exits 64.
int env_int(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (!v) return fallback;
  const auto n = serelin::parse_int(v, 0, INT_MAX);
  if (!n) {
    std::fprintf(stderr, "error: %s wants an integer in [0, %d], got '%s'\n",
                 name, INT_MAX, v);
    std::exit(64);
  }
  return static_cast<int>(*n);
}

}  // namespace

int main() {
  using namespace serelin;
  const int max_v = env_int("SERELIN_TABLE1_MAXV", 250000);

  TextTable table({"Circuit", "|V|", "|E|", "#FF", "Phi", "SER",
                   "dFF_ref", "t_ref", "dSER_ref", "(paper)", "dFF_new",
                   "t_new", "#J", "dSER_new", "(paper)", "ref/new"});

  double sum_dser_ref = 0, sum_dser_new = 0, sum_ratio = 0;
  double sum_dff_ref = 0, sum_dff_new = 0;
  double sum_t_ref = 0, sum_t_new = 0;
  int rows = 0, timed_rows = 0;

  Stopwatch total;
  for (const SuiteCircuit& sc : paper_suite()) {
    if (sc.vertices > max_v) {
      std::printf("-- skipping %s (|V|=%d > SERELIN_TABLE1_MAXV=%d)\n",
                  sc.name.c_str(), sc.vertices, max_v);
      continue;
    }
    Stopwatch row_watch;
    const Netlist nl = generate_suite_circuit(sc);
    // FlowConfig's simulation defaults are the paper's: K=2048 patterns,
    // n=15 frames, 30 warm-up frames.
    const FlowConfig config{};
    const ExperimentRow row = run_experiment(nl, CellLibrary{}, config);

    const double ratio =
        row.minobswin.ser > 0 ? row.minobs.ser / row.minobswin.ser : 1.0;
    table.add_row({row.name, std::to_string(row.vertices),
                   std::to_string(row.edges), std::to_string(row.ffs),
                   fmt_fixed(row.phi, 0), fmt_sci(row.ser_original),
                   fmt_percent(row.minobs.dff_change),
                   fmt_fixed(row.minobs.seconds, 2),
                   fmt_percent(row.minobs.dser),
                   fmt_percent(sc.paper_dser_ref),
                   fmt_percent(row.minobswin.dff_change),
                   fmt_fixed(row.minobswin.seconds, 2),
                   std::to_string(row.minobswin.solver.commits),
                   fmt_percent(row.minobswin.dser),
                   fmt_percent(sc.paper_dser_new), fmt_percent(ratio - 1.0)});
    std::printf("-- %-10s done in %.1fs (analysis %.1fs, K=%d, n=%d)%s%s\n",
                row.name.c_str(), row_watch.seconds(), row.analysis_seconds,
                config.sim.patterns, config.sim.frames,
                row.minobswin.solver.exited_early ? " [early exit]" : "",
                row.setup_hold_ok ? "" : " [hold fallback]");

    sum_dser_ref += row.minobs.dser;
    sum_dser_new += row.minobswin.dser;
    sum_dff_ref += row.minobs.dff_change;
    sum_dff_new += row.minobswin.dff_change;
    sum_ratio += ratio;
    ++rows;
    // The paper excludes the b18/b19 early-exit rows from run-time means.
    if (!row.minobswin.solver.exited_early &&
        row.name.find("b19") == std::string::npos &&
        row.name.find("b18") == std::string::npos) {
      sum_t_ref += row.minobs.seconds;
      sum_t_new += row.minobswin.seconds;
      ++timed_rows;
    }
  }

  if (rows == 0) {
    std::printf("no rows ran\n");
    return 1;
  }
  table.add_row({"AVG.", "", "", "", "", "", fmt_percent(sum_dff_ref / rows),
                 fmt_fixed(sum_t_ref / std::max(timed_rows, 1), 2) + "*",
                 fmt_percent(sum_dser_ref / rows), "(-26.70%)",
                 fmt_percent(sum_dff_new / rows),
                 fmt_fixed(sum_t_new / std::max(timed_rows, 1), 2) + "*",
                 "", fmt_percent(sum_dser_new / rows), "(-32.70%)",
                 fmt_percent(sum_ratio / rows - 1.0)});

  std::printf("\nTable I — serelin reproduction "
              "(paper's published averages in parentheses)\n\n%s\n",
              table.str().c_str());
  std::printf("total wall clock: %.1fs over %d rows "
              "(* run-time averages exclude b18/b19, as in the paper)\n",
              total.seconds(), rows);
  return 0;
}
