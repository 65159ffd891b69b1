// serelin_cli — the command-line front end to the library.
//
//   serelin_cli stats    <circuit>
//   serelin_cli analyze  <circuit> [options]
//   serelin_cli retime   <in> <out> [--algorithm minobswin|minobs|minarea]
//                                   [options]
//   serelin_cli lint     <circuit>
//   serelin_cli convert  <in> <out>
//   serelin_cli generate (<gates> <dffs> | --suite <name>) <out>
//
// `retime` runs the solver pipeline (flow/pipeline.hpp) from the
// --algorithm stage: minobswin -> minobs -> minperiod -> identity, entered
// at minobs for `minobs`, and minarea -> minperiod -> identity for
// `minarea`.
//
// Circuit formats are chosen by extension: .bench (ISCAS89) or .blif.
// Common options:
//   --period <phi>     clock period (default: Section-V choice)
//   --rmin <r>         P2' short-path bound (default: Section-V choice)
//   --patterns <K>     simulation patterns (default 2048)
//   --frames <n>       time-frame expansion depth (default 15)
//   --area-weight <w>  §VII area-augmented objective (default 0)
//   --seed <s>         generator seed
//   --threads <N>      worker threads for parallel kernels
//                      (default: hardware concurrency; 1 = serial)
//   --deadline <sec>   wall-clock budget; `retime` splits it across the
//                      pipeline's stages and exits 75 when the result is
//                      partial or came from a later stage
//   --recover          parse inputs in recovering mode: defects become
//                      diagnostics on stderr instead of hard errors
//   --verify           `retime` accepts a stage's result only when the
//                      independent RetimingOracle (src/check) verifies it;
//                      a rejected stage falls through the chain
//   --journal <path>   JSONL record of every pipeline attempt
//   --checkpoint <path> durable crash-safe progress snapshots
//                      (docs/ROBUSTNESS.md §11)
//   --resume <path>    continue a killed run from its checkpoint; reaches
//                      the bit-identical result of an uninterrupted run
//   --trace <path>     Chrome trace_event JSON of the whole command
//                      (load in chrome://tracing or ui.perfetto.dev)
//   --metrics <path>   flat JSON of the named solver/kernel counters
//                      (schemas: docs/OBSERVABILITY.md)
//
// SIGINT/SIGTERM: the first signal stops every solver at its next feasible
// checkpoint; the tool writes its best-so-far result (and forces a final
// checkpoint when --checkpoint is on) and exits 78. A second signal kills
// the process with the conventional signal status.
//
// Exit codes (sysexits-style, see docs/ROBUSTNESS.md):
//   0 success, 64 usage, 65 malformed input data, 70 internal error,
//   75 deadline expired / degraded (partial result written),
//   76 no pipeline stage produced a verified result (nothing written),
//   78 interrupted by SIGINT/SIGTERM (clean partial result written)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "flow/pipeline.hpp"
#include "gen/paper_suite.hpp"
#include "gen/random_circuit.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/blif_io.hpp"
#include "netlist/validate.hpp"
#include "rgraph/apply.hpp"
#include "ser/ser_analyzer.hpp"
#include "support/check.hpp"
#include "support/deadline.hpp"
#include "support/diag.hpp"
#include "support/metrics.hpp"
#include "support/parallel.hpp"
#include "support/signals.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "support/trace.hpp"

namespace {

using namespace serelin;

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg) std::fprintf(stderr, "error: %s\n\n", msg);
  std::fprintf(stderr,
               "usage: serelin_cli <command> ...\n"
               "  stats    <circuit>\n"
               "  analyze  <circuit> [--period P] [--patterns K] "
               "[--frames n] [--threads N]\n"
               "  retime   <in> <out> [--algorithm minobswin|minobs|"
               "minarea]\n"
               "           [--period P] [--rmin R] [--patterns K] "
               "[--frames n] [--area-weight w]\n"
               "           [--deadline sec] [--verify] [--journal path]\n"
               "           [--checkpoint path] [--resume path]\n"
               "  lint     <circuit>\n"
               "  convert  <in> <out>\n"
               "  generate <gates> <dffs> <out> [--seed s]\n"
               "  generate --suite <name> <out>\n"
               "common: --recover (diagnose-and-continue input parsing), "
               "--threads N,\n"
               "        --trace path (Chrome trace JSON), --metrics path "
               "(counter totals JSON)\n"
               "circuit formats by extension: .bench, .blif\n");
  std::exit(64);
}

bool ends_with(const std::string& s, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
}

bool g_recover = false;  ///< --recover: diagnose-and-continue parsing

Netlist read_any(const std::string& path) {
  if (!ends_with(path, ".blif") && !ends_with(path, ".bench"))
    usage("unknown circuit extension (want .bench or .blif)");
  const bool blif = ends_with(path, ".blif");
  if (!g_recover)
    return blif ? read_blif_file(path) : read_bench_file(path);
  DiagnosticSink sink;
  Netlist nl = blif ? read_blif_file(path, sink) : read_bench_file(path, sink);
  for (const Diagnostic& d : sink.diagnostics())
    std::fprintf(stderr, "%s\n", d.render().c_str());
  if (sink.error_count() > 0)
    std::fprintf(stderr, "%s\n", sink.summary().c_str());
  return nl;
}

void write_any(const std::string& path, const Netlist& nl) {
  if (ends_with(path, ".blif")) return write_blif_file(path, nl);
  if (ends_with(path, ".bench")) return write_bench_file(path, nl);
  usage("unknown circuit extension (want .bench or .blif)");
}

struct Options {
  double period = 0.0;      // 0 = Section-V choice
  double rmin = -1.0;       // <0 = Section-V choice
  int patterns = 2048;
  int frames = 15;
  double area_weight = 0.0;
  int threads = 0;  // 0 = hardware concurrency
  std::uint64_t seed = 1;
  double deadline_s = 0.0;  // 0 = unbounded
  Deadline deadline;        // derived from deadline_s at parse time
  bool verify = false;      // oracle-check every stage result
  std::string journal;      // JSONL attempt journal
  std::string checkpoint;   // durable progress snapshots
  std::string resume;       // checkpoint to continue from
  std::string trace;        // Chrome trace_event JSON output path
  std::string metrics;      // counter-totals JSON output path
  std::string algorithm = "minobswin";
  std::string suite;
  std::vector<std::string> positional;
};

// Checked option-value parsing: unlike atoi/atof these reject
// "--threads banana" (and trailing junk, and out-of-range values) with a
// usage error instead of silently reading 0.
int opt_int(const std::string& flag, const char* arg, std::int64_t lo,
            std::int64_t hi) {
  const auto v = parse_int(arg, lo, hi);
  if (!v)
    usage((flag + " wants an integer in [" + std::to_string(lo) + ", " +
           std::to_string(hi) + "], got '" + arg + "'")
              .c_str());
  return static_cast<int>(*v);
}

double opt_double(const std::string& flag, const char* arg) {
  const auto v = parse_double(arg);
  if (!v) usage((flag + " wants a number, got '" + arg + "'").c_str());
  return *v;
}

std::uint64_t opt_uint(const std::string& flag, const char* arg) {
  const auto v = parse_uint(arg);
  if (!v)
    usage((flag + " wants an unsigned integer, got '" + arg + "'").c_str());
  return *v;
}

Options parse(int argc, char** argv, int first) {
  Options opt;
  for (int i = first; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--period") opt.period = opt_double(a, value());
    else if (a == "--rmin") opt.rmin = opt_double(a, value());
    else if (a == "--patterns")
      opt.patterns = opt_int(a, value(), 64, 1 << 20);
    else if (a == "--frames") opt.frames = opt_int(a, value(), 1, 1 << 16);
    else if (a == "--area-weight") opt.area_weight = opt_double(a, value());
    else if (a == "--threads") opt.threads = opt_int(a, value(), 0, 4096);
    else if (a == "--seed") opt.seed = opt_uint(a, value());
    else if (a == "--deadline") opt.deadline_s = opt_double(a, value());
    else if (a == "--recover") g_recover = true;
    else if (a == "--verify") opt.verify = true;
    else if (a == "--journal") opt.journal = value();
    else if (a == "--checkpoint") opt.checkpoint = value();
    else if (a == "--resume") opt.resume = value();
    else if (a == "--trace") opt.trace = value();
    else if (a == "--metrics") opt.metrics = value();
    else if (a == "--algorithm") opt.algorithm = value();
    else if (a == "--suite") opt.suite = value();
    else if (a.rfind("--", 0) == 0) usage(("unknown option " + a).c_str());
    else opt.positional.push_back(a);
  }
  if (opt.patterns % 64 != 0)
    usage("--patterns must be a multiple of 64");
  if (opt.deadline_s < 0) usage("--deadline must be >= 0");
  if (opt.deadline_s > 0) opt.deadline = Deadline::after(opt.deadline_s);
  return opt;
}

int cmd_stats(const Options& opt) {
  if (opt.positional.size() != 1) usage("stats needs one circuit");
  const Netlist nl = read_any(opt.positional[0]);
  CellLibrary lib;
  RetimingGraph g(nl, lib);
  std::map<CellType, int> by_type;
  for (NodeId id = 0; id < nl.node_count(); ++id) ++by_type[nl.node(id).type];
  std::printf("%s: %zu nodes\n", nl.name().c_str(), nl.node_count());
  std::printf("  gates %zu, flip-flops %zu, inputs %zu, outputs %zu\n",
              nl.gate_count(), nl.dff_count(), nl.inputs().size(),
              nl.outputs().size());
  std::printf("  retiming graph: |V| = %zu, |E| = %zu\n",
              g.vertex_count(), g.edge_count());
  std::printf("  total area: %.1f\n", nl.total_area(lib));
  for (const auto& [type, count] : by_type)
    std::printf("  %-6s %d\n", std::string(cell_type_name(type)).c_str(),
                count);
  return 0;
}

int cmd_analyze(const Options& opt) {
  if (opt.positional.size() != 1) usage("analyze needs one circuit");
  const Netlist nl = read_any(opt.positional[0]);
  CellLibrary lib;
  RetimingGraph g(nl, lib);
  double period = opt.period;
  if (period <= 0) {
    period = initialize_retiming(g, {}).timing.period;
    std::printf("(using Section-V period %.1f)\n", period);
  }
  SerOptions ser;
  ser.timing = {period, 0.0, 2.0};
  ser.sim.patterns = opt.patterns;
  ser.sim.frames = opt.frames;
  const SerReport rep = analyze_ser(nl, lib, ser);
  std::printf("SER(C_S, n=%d) = %s (comb %s + seq %s) at Phi = %.1f\n",
              opt.frames, fmt_sci(rep.total).c_str(),
              fmt_sci(rep.combinational).c_str(),
              fmt_sci(rep.sequential).c_str(), period);
  return 0;
}

int cmd_retime(const Options& opt) {
  if (opt.positional.size() != 2) usage("retime needs <in> <out>");
  PipelineOptions po;
  if (opt.algorithm == "minobswin") po.start = PipelineStage::kMinObsWin;
  else if (opt.algorithm == "minobs") po.start = PipelineStage::kMinObs;
  else if (opt.algorithm == "minarea") po.start = PipelineStage::kMinArea;
  else usage("unknown --algorithm");
  po.sim.patterns = opt.patterns;
  po.sim.frames = opt.frames;
  po.period = opt.period;
  po.rmin = opt.rmin;
  po.area_weight = opt.area_weight;
  po.deadline = opt.deadline;
  po.verify = opt.verify;
  po.journal_path = opt.journal;
  // A resumed run keeps checkpointing: default the snapshot destination to
  // the file it is resuming from, so repeated kills keep converging.
  po.checkpoint_path = !opt.checkpoint.empty() ? opt.checkpoint : opt.resume;
  po.resume_path = opt.resume;
  const Netlist nl = read_any(opt.positional[0]);
  CellLibrary lib;
  const PipelineResult res = run_pipeline(nl, lib, po);
  for (const StageAttempt& a : res.attempts) {
    std::fprintf(stderr, "pipeline: %s attempt %d: %s%s%s\n",
                 pipeline_stage_name(a.stage), a.attempt,
                 a.errored ? a.error.c_str()
                           : (a.verified ? a.verdict.summary().c_str()
                                         : "completed (unverified)"),
                 a.stop_reason != StopReason::kNone ? " [stopped early]" : "",
                 a.accepted ? " [accepted]" : "");
    if (a.verified && !a.verdict.ok())
      for (const Diagnostic& d : a.verdict.diagnostics.diagnostics())
        std::fprintf(stderr, "%s\n", d.render().c_str());
  }
  if (!res.journal_healthy)
    std::fprintf(stderr, "warning: journal writes failed mid-run (%s)\n",
                 res.journal_path.c_str());
  if (!res.ok) {
    std::fprintf(stderr,
                 "pipeline: no stage produced a verified result; nothing "
                 "written\n");
    return 76;
  }
  // Graph construction is deterministic, so this graph indexes the
  // pipeline's retiming.
  const RetimingGraph g(nl, lib);
  const Netlist out = apply_retiming(g, res.solver.r, nl.name() + "_rt");
  write_any(opt.positional[1], out);
  std::printf("%s: objective gain %lld, %d commits at Phi = %.4g, "
              "R_min = %.4g%s\n",
              pipeline_stage_name(res.stage),
              static_cast<long long>(res.solver.objective_gain),
              res.solver.commits, res.timing.period, res.rmin,
              res.solver.exited_early ? " [early exit]" : "");
  if (opt.verify) std::printf("oracle: %s\n", res.verdict.summary().c_str());
  std::printf("flip-flops %zu -> %zu; wrote %s\n", nl.dff_count(),
              out.dff_count(), opt.positional[1].c_str());
  if (res.degraded) {
    std::printf("degraded: %s\n", res.solver.stop_detail.empty()
                                      ? "fell back past the first stage"
                                      : res.solver.stop_detail.c_str());
    return 75;
  }
  return 0;
}

int cmd_lint(const Options& opt) {
  if (opt.positional.size() != 1) usage("lint needs one circuit");
  const std::string& path = opt.positional[0];
  if (!ends_with(path, ".blif") && !ends_with(path, ".bench"))
    usage("unknown circuit extension (want .bench or .blif)");
  // Lint always parses in recovering mode: the point is to report every
  // defect in one run, not to stop at the first.
  DiagnosticSink sink;
  const Netlist nl = ends_with(path, ".blif") ? read_blif_file(path, sink)
                                              : read_bench_file(path, sink);
  lint_netlist(nl, sink);
  for (const Diagnostic& d : sink.diagnostics())
    std::printf("%s\n", d.render().c_str());
  std::printf("%s: %s\n", path.c_str(), sink.summary().c_str());
  return sink.has_errors() ? 65 : 0;
}

int cmd_convert(const Options& opt) {
  if (opt.positional.size() != 2) usage("convert needs <in> <out>");
  const Netlist nl = read_any(opt.positional[0]);
  write_any(opt.positional[1], nl);
  std::printf("converted %s -> %s (%zu nodes)\n",
              opt.positional[0].c_str(), opt.positional[1].c_str(),
              nl.node_count());
  return 0;
}

int cmd_generate(const Options& opt) {
  if (!opt.suite.empty()) {
    if (opt.positional.size() != 1) usage("generate --suite <name> <out>");
    const Netlist nl = generate_suite_circuit(suite_circuit(opt.suite));
    write_any(opt.positional.back(), nl);
    std::printf("wrote %s (%zu gates, %zu FFs)\n",
                opt.positional.back().c_str(), nl.gate_count(),
                nl.dff_count());
    return 0;
  }
  if (opt.positional.size() != 3) usage("generate <gates> <dffs> <out>");
  RandomCircuitSpec spec;
  spec.gates = std::atoi(opt.positional[0].c_str());
  spec.dffs = std::atoi(opt.positional[1].c_str());
  spec.inputs = 16;
  spec.outputs = 16;
  spec.name = "rand" + opt.positional[0];
  spec.seed = opt.seed;
  const Netlist nl = generate_random_circuit(spec);
  write_any(opt.positional[2], nl);
  std::printf("wrote %s (%zu gates, %zu FFs)\n", opt.positional[2].c_str(),
              nl.gate_count(), nl.dff_count());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  // First SIGINT/SIGTERM: cancel cooperatively — solvers stop at their
  // next feasible checkpoint and the tool exits 78 with a legal partial
  // result. Second signal: die with the conventional signal status.
  CancelToken interrupt;
  SignalGuard guard(interrupt);
  try {
    Options opt = parse(argc, argv, 2);
    if (opt.threads < 0) usage("--threads must be >= 0 (0 = hardware)");
    opt.deadline.attach(interrupt);
    set_execution_threads(opt.threads);
    const bool instrument = !opt.trace.empty() || !opt.metrics.empty();
    if (instrument && !trace_compiled_in())
      std::fprintf(stderr,
                   "note: built with SERELIN_TRACE=OFF; --trace/--metrics "
                   "outputs will be empty\n");
    if (!opt.trace.empty()) Tracer::start();
    const MetricsSnapshot metrics_before = metrics_snapshot();
    int rc = -1;
    if (cmd == "stats") rc = cmd_stats(opt);
    else if (cmd == "analyze") rc = cmd_analyze(opt);
    else if (cmd == "retime") rc = cmd_retime(opt);
    else if (cmd == "lint") rc = cmd_lint(opt);
    else if (cmd == "convert") rc = cmd_convert(opt);
    else if (cmd == "generate") rc = cmd_generate(opt);
    else usage(("unknown command '" + cmd + "'").c_str());
    if (!opt.trace.empty()) {
      Tracer::stop();
      Tracer::write_chrome_json(opt.trace);
    }
    if (!opt.metrics.empty())
      write_metrics_json(metrics_snapshot() - metrics_before, opt.metrics);
    // An operator interrupt outranks "success"/"degraded": whatever was
    // written is a clean best-so-far artifact, and 78 tells the caller
    // the run was cut short by a signal, not by its own budget.
    if (guard.interrupted() && (rc == 0 || rc == 75))
      rc = SignalGuard::kExitInterrupted;
    return rc;
  } catch (const CancelledError& e) {
    if (guard.interrupted()) {
      // The signal's CancelToken cancelled an all-or-nothing kernel
      // before any partial result existed.
      std::fprintf(stderr, "interrupted: %s\n", e.what());
      return SignalGuard::kExitInterrupted;
    }
    // An all-or-nothing kernel hit the --deadline before any partial
    // result existed; there is nothing useful to write.
    std::fprintf(stderr, "deadline: %s\n", e.what());
    return 75;
  } catch (const ParseError& e) {
    // Malformed input data (DiagnosticError renders the full list).
    std::fprintf(stderr, "error: %s\n", e.what());
    return 65;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 70;
  } catch (const std::exception& e) {
    // Last-resort net: standard-library failures (bad_alloc, regex, ...)
    // must not escape main as a terminate/abort.
    std::fprintf(stderr, "internal error: %s\n", e.what());
    return 70;
  }
}
