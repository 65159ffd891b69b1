// serelin_campaign — one seeded campaign driver for every property check
// (docs/ROBUSTNESS.md §6).
//
//   serelin_campaign faults     [--seed S] [--iters N] [--max-seconds T]
//                               [--out DIR]
//   serelin_campaign solvers    [--seed S] [--iters N] [--max-seconds T]
//                               [--out DIR] [--mode M] [--no-elw]
//   serelin_campaign crash      [--seed S] [--iters N] [--max-seconds T]
//                               [--out DIR] [--kills K]
//   serelin_campaign self-check [--out DIR]
//   serelin_campaign replay DIR
//
// A campaign runs iterations i = 0, 1, ... of one property. Iteration i
// draws everything from Rng(splitmix64(seed + 0x9e3779b97f4a7c15·(i+1))),
// so `--seed S --iters i+1` reproduces it alone. --max-seconds caps the
// wall time; the first SIGINT/SIGTERM finishes the current iteration and
// exits 78. The campaign stops at the first failing iteration.
//
// The properties:
//   faults   hostile netlist bytes never crash the front end or yield an
//            illegal retiming: a random victim circuit is serialized,
//            corrupted (gen/fault_inject.hpp) and driven through the
//            recovering parse, the strict parse, lint + repair, a
//            deadline-bounded MinObsWin retime, and the result oracle.
//   solvers  every engine run_differential (check/differential.hpp)
//            cross-checks agrees on a random circuit — MinObsWin against
//            the closure and exhaustive references under P2′, FEAS
//            against the exact W/D period, materialization. A
//            divergence is shrunk to a 1-minimal netlist that shows the
//            same divergence kind.
//   crash    a run SIGKILLed at any durability crash point resumes to a
//            result bit-identical to an uninterrupted one, and leaves no
//            torn artifact behind.
//
// Counterexamples persist under --out as <prefix>-<contenthash16>.<ext>
// (fault-… for faults, div-… for solvers) with a `.repro` sidecar whose
// first line names the property (support/corpus.hpp). A faults iteration
// writes its input to pending-seed<S>-iter<N>.<ext> before the battery
// runs, so a hard crash leaves it behind. A failing crash trial keeps its
// scratch directory under --out.
//
// `self-check` proves detection power: ten planted solver faults must be
// caught (at least nine), shrunk to at most 12 gates and replay as
// divergent from their persisted sidecars; a torn journal, a damaged
// checkpoint and a mini kill campaign must be detected and survived.
// `replay DIR` runs every .bench/.blif file of DIR through the faults
// battery, and replays every solvers entry under its recorded DiffConfig
// against its `expect:` line.
//
// Exit codes (docs/ROBUSTNESS.md §5): 0 clean, 64 usage, 65 a replay entry
// cannot be read, 70 --out cannot be created, 77 a property failed, 78
// interrupted.
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "check/differential.hpp"
#include "check/oracle.hpp"
#include "check/shrink.hpp"
#include "core/initializer.hpp"
#include "core/objective.hpp"
#include "core/solver.hpp"
#include "flow/pipeline.hpp"
#include "flow/resume_check.hpp"
#include "gen/fault_inject.hpp"
#include "gen/random_circuit.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/blif_io.hpp"
#include "netlist/cell_library.hpp"
#include "netlist/validate.hpp"
#include "rgraph/retiming_graph.hpp"
#include "sim/observability.hpp"
#include "support/atomic_io.hpp"
#include "support/check.hpp"
#include "support/checkpoint.hpp"
#include "support/corpus.hpp"
#include "support/deadline.hpp"
#include "support/diag.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "support/signals.hpp"
#include "support/strings.hpp"

namespace {

namespace fs = std::filesystem;
using namespace serelin;

// ---------------------------------------------------------------------------
// Exit codes, options, and the campaign loop every property shares.

/// How a subcommand ended; exit_code() maps it onto the registry.
enum class Outcome {
  kClean,
  kUsage,
  kUnreadable,  ///< a replay entry (or the replay directory) is unreadable
  kInternal,    ///< --out cannot be created, or an unexpected exception
  kFailed,      ///< any property failure
  kInterrupted,
};

int exit_code(Outcome outcome) {
  switch (outcome) {
    case Outcome::kClean: return 0;
    case Outcome::kUsage: return 64;
    case Outcome::kUnreadable: return 65;
    case Outcome::kInternal: return 70;
    case Outcome::kFailed: return 77;
    case Outcome::kInterrupted: return SignalGuard::kExitInterrupted;
  }
  return 70;
}

struct Command {
  const char* name;
  const char* flags;  ///< the flags the subcommand takes
  int iters;          ///< default --iters
  const char* out;    ///< default --out
};

constexpr Command kCommands[] = {
    {"faults", "--seed --iters --max-seconds --out", 500,
     "tests/corpus/found"},
    {"solvers", "--seed --iters --max-seconds --out --mode --no-elw", 200,
     "tests/corpus/found"},
    {"crash", "--seed --iters --max-seconds --out --kills", 4,
     "build/campaign-crash"},
    {"self-check", "--out", 0, "build/campaign-self-check"},
    {"replay", "", 0, ""},
};

struct Options {
  const Command* command = nullptr;
  std::uint64_t seed = 1;
  int iters = 0;
  double max_seconds = 0.0;  // 0 = unbounded
  std::string out;           // replay: the directory to replay
  std::string mode = "all";  // generator mode name, or "all" (round-robin)
  bool enforce_elw = true;
  int kills = 25;  // kill points per crash trial
};

[[noreturn]] void usage(const std::string& msg) {
  std::fprintf(
      stderr,
      "error: %s\n"
      "usage: serelin_campaign faults     [--seed S] [--iters N] "
      "[--max-seconds T] [--out DIR]\n"
      "       serelin_campaign solvers    [--seed S] [--iters N] "
      "[--max-seconds T] [--out DIR]\n"
      "                                   [--mode all|uniform|skewed-fanin|"
      "register-dense|near-critical] [--no-elw]\n"
      "       serelin_campaign crash      [--seed S] [--iters N] "
      "[--max-seconds T] [--out DIR] [--kills K]\n"
      "       serelin_campaign self-check [--out DIR]\n"
      "       serelin_campaign replay DIR\n",
      msg.c_str());
  std::exit(exit_code(Outcome::kUsage));
}

Options parse_args(int argc, char** argv) {
  if (argc < 2) usage("missing subcommand");
  Options opt;
  for (const Command& c : kCommands)
    if (argv[1] == std::string(c.name)) opt.command = &c;
  if (opt.command == nullptr)
    usage(std::string("unknown subcommand ") + argv[1]);
  const Command& cmd = *opt.command;
  opt.iters = cmd.iters;
  opt.out = cmd.out;
  const bool replay = std::string(cmd.name) == "replay";
  bool have_dir = false;

  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (replay && !have_dir && !a.starts_with("--")) {
      opt.out = a;
      have_dir = true;
      continue;
    }
    if ((std::string(" ") + cmd.flags + " ").find(" " + a + " ") ==
        std::string::npos)
      usage(std::string(cmd.name) + " does not take " + a);
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    if (a == "--seed") {
      const auto v = parse_uint(value());
      if (!v) usage("--seed wants an unsigned integer");
      opt.seed = *v;
    } else if (a == "--iters") {
      const auto v = parse_int(value(), 1, 1000000000);
      if (!v) usage("--iters wants a positive integer");
      opt.iters = static_cast<int>(*v);
    } else if (a == "--max-seconds") {
      const auto v = parse_double(value());
      if (!v || *v < 0) usage("--max-seconds wants a non-negative number");
      opt.max_seconds = *v;
    } else if (a == "--out") {
      opt.out = value();
    } else if (a == "--mode") {
      opt.mode = value();
      if (opt.mode != "all" && !parse_generator_mode(opt.mode))
        usage("unknown generator mode " + opt.mode);
    } else if (a == "--no-elw") {
      opt.enforce_elw = false;
    } else if (a == "--kills") {
      const auto v = parse_int(value(), 1, 1 << 20);
      if (!v) usage("--kills wants a positive integer");
      opt.kills = static_cast<int>(*v);
    } else {
      usage(std::string(cmd.name) + " does not take " + a);
    }
  }
  if (replay && !have_dir) usage("replay wants a directory");
  return opt;
}

/// Set by main(); lets campaigns stop cleanly on SIGINT/SIGTERM.
const SignalGuard* g_signals = nullptr;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Runs `iteration(i, rng)` for i = 0 .. --iters-1 with the seed stream,
/// until the first failure, --max-seconds, or a signal. Prints the
/// iteration count; the caller prints the property's own tally.
template <typename Iteration>
Outcome run_campaign(const Options& opt, Iteration&& iteration) {
  const auto t0 = std::chrono::steady_clock::now();
  const char* name = opt.command->name;
  int done = 0;
  for (; done < opt.iters; ++done) {
    if (opt.max_seconds > 0 && seconds_since(t0) >= opt.max_seconds) break;
    if (g_signals->interrupted()) {
      std::fprintf(stderr,
                   "serelin_campaign %s: interrupted after %d iteration(s)\n",
                   name, done);
      break;
    }
    std::uint64_t stream =
        opt.seed + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(done + 1);
    Rng rng(splitmix64(stream));
    if (!iteration(done, rng)) return Outcome::kFailed;
  }
  std::printf(
      "serelin_campaign %s: %d iteration(s) clean in %.1fs (seed %llu)\n",
      name, done, seconds_since(t0), static_cast<unsigned long long>(opt.seed));
  return g_signals->interrupted() ? Outcome::kInterrupted : Outcome::kClean;
}

/// The command line that re-runs a campaign through iteration `iter`.
std::string reproduce_command(const Options& opt, int iter) {
  return std::string("serelin_campaign ") + opt.command->name + " --seed " +
         std::to_string(opt.seed) + " --iters " + std::to_string(iter + 1);
}

/// Persists a counterexample under --out with a sidecar of `fields` plus
/// the reproduce and replay lines. Returns its path (empty on failure).
std::string persist(const Options& opt, const char* property,
                    const char* prefix, const char* ext,
                    const std::string& text, SidecarFields fields,
                    const std::string& reproduce) {
  fields.emplace_back("reproduce", reproduce);
  fields.emplace_back("replay", "serelin_campaign replay " + opt.out);
  const PersistResult kept = persist_counterexample(
      opt.out, prefix, ext, text, render_sidecar(property, fields));
  if (kept.path.empty())
    std::fprintf(stderr, "  WARNING: could not persist counterexample to %s\n",
                 opt.out.c_str());
  else
    std::fprintf(stderr, "  counterexample: %s%s\n", kept.path.c_str(),
                 kept.deduplicated ? " (already in corpus)" : "");
  return kept.path;
}

std::optional<std::string> read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

// ---------------------------------------------------------------------------
// faults: hostile bytes yield diagnostics, typed exceptions or legal,
// oracle-verified retimings — never a crash, hang or illegal retiming.

/// Wall-clock budget of the deadline-bounded retime, in seconds.
constexpr double kFaultDeadlineSeconds = 0.005;

struct FaultTally {
  int parsed_clean = 0;  ///< corrupted text still parsed with no errors
  int diagnosed = 0;     ///< recovering parse collected error diagnostics
  int strict_threw = 0;  ///< strict parse raised ParseError
  int solved = 0;        ///< retime ran to convergence
  int partial = 0;       ///< retime stopped on deadline/cancel
  int skipped = 0;       ///< recovered netlist too degenerate to retime
  int verified = 0;      ///< oracle signed a solver result off
};

/// What went wrong in a failed battery, for the sidecar.
struct Failure {
  std::string phase;
  std::string what;
};

/// Drives one input text through the battery. `iter` picks the deadline
/// schedule; `label` names the input in failure messages.
std::optional<Failure> fault_battery(int iter, const std::string& label,
                                     const std::string& text, bool use_blif,
                                     FaultTally& tally) {
  const auto fail = [&](const char* phase, const std::string& what) {
    std::fprintf(stderr, "FAIL %s: %s: %s\n", label.c_str(), phase,
                 what.c_str());
    return Failure{phase, what};
  };

  // Recovering parse: any throw on any byte sequence is a bug.
  Netlist recovered;
  DiagnosticSink sink;
  try {
    std::istringstream is(text);
    recovered = use_blif ? read_blif(is, "victim", sink)
                         : read_bench(is, "victim", sink);
  } catch (const std::exception& e) {
    return fail("recovering parse threw", e.what());
  }
  if (sink.error_count() > 0)
    ++tally.diagnosed;
  else
    ++tally.parsed_clean;

  // Strict parse of the same text: ParseError (DiagnosticError included)
  // is the designed rejection; any other exception type is a bug.
  try {
    std::istringstream is(text);
    if (use_blif)
      read_blif(is, "victim");
    else
      read_bench(is, "victim");
  } catch (const ParseError&) {
    ++tally.strict_threw;
  } catch (const std::exception& e) {
    return fail("strict parse threw non-ParseError", e.what());
  }

  Netlist repaired;
  try {
    DiagnosticSink lint_sink;
    lint_netlist(recovered, lint_sink);
    repaired = repair_netlist(recovered, lint_sink);
  } catch (const std::exception& e) {
    return fail("lint/repair threw", e.what());
  }
  if (repaired.gate_count() == 0 || repaired.outputs().empty()) {
    ++tally.skipped;  // corruption gutted the circuit; nothing to retime
    return std::nullopt;
  }

  // Retime under a deadline: every third iteration an already-expired
  // budget, every fifth a pre-cancelled token, the rest a small real one.
  try {
    CellLibrary lib;
    RetimingGraph g(repaired, lib);
    Deadline deadline;
    if (iter % 3 == 0) {
      deadline = Deadline::after(0.0);
    } else if (iter % 5 == 0) {
      CancelToken token;
      token.cancel();
      deadline = Deadline::with_token(token);
    } else {
      deadline = Deadline::after(kFaultDeadlineSeconds);
    }

    SimConfig sim;
    sim.patterns = 64;
    sim.frames = 3;
    sim.warmup = 4;
    sim.deadline = deadline;
    const ObsResult obs = ObservabilityAnalyzer(repaired, sim).run();

    InitOptions init_opt;
    init_opt.deadline = deadline;
    const InitResult init = initialize_retiming(g, init_opt);
    SolverOptions so;
    so.timing = init.timing;
    so.rmin = init.rmin;
    so.deadline = deadline;
    const ObsGains gains = compute_gains(g, obs.obs, sim.patterns);
    const SolverResult result = MinObsWinSolver(g, gains, so).solve(init.r);

    if (!g.valid(result.r))
      return fail("solver", result.partial()
                                ? "Partial result carries an invalid retiming"
                                : "converged result carries an invalid "
                                  "retiming");
    if (result.partial()) {
      if (result.stop_detail.empty())
        return fail("solver", "Partial result without a structured reason");
      ++tally.partial;
    } else {
      ++tally.solved;
    }

    // Even a Partial result claims legality, the period and (when P2′
    // was in force) the ELW bound; the oracle must re-derive all of it.
    OracleOptions oracle_options;
    oracle_options.timing = init.timing;
    oracle_options.rmin = init.rmin;
    oracle_options.check_elw = init.rmin > 0 && !result.exited_early;
    const Verdict verdict =
        RetimingOracle(g, oracle_options).verify(result, init.r, gains);
    if (!verdict.ok()) {
      std::string detail = verdict.summary();
      for (const Diagnostic& d : verdict.diagnostics.diagnostics())
        detail += "\n    " + d.render();
      return fail("oracle rejected the solver result", detail);
    }
    ++tally.verified;
  } catch (const CancelledError&) {
    ++tally.partial;  // deadline fired inside an all-or-nothing stage
  } catch (const std::exception& e) {
    return fail("retime pipeline threw", e.what());
  }
  return std::nullopt;
}

/// One generate-corrupt-drive iteration, with its input persisted as a
/// pending file while the battery runs.
bool faults_iteration(const Options& opt, int iter, Rng& rng,
                      FaultTally& tally) {
  const bool use_blif = rng.chance(0.5);
  const char* ext = use_blif ? ".blif" : ".bench";
  std::string text;
  {
    const Netlist victim = random_victim(rng);
    std::ostringstream os;
    if (use_blif)
      write_blif(os, victim);
    else
      write_bench(os, victim);
    text = mutate_text(os.str(), rng);
  }

  const fs::path pending =
      fs::path(opt.out) / ("pending-seed" + std::to_string(opt.seed) +
                           "-iter" + std::to_string(iter) + ext);
  try_atomic_write_file(pending.string(), text);
  const std::string label = "iter " + std::to_string(iter) + " (--seed " +
                            std::to_string(opt.seed) + ")";
  const std::optional<Failure> failure =
      fault_battery(iter, label, text, use_blif, tally);
  std::error_code ec;
  if (!failure) {
    fs::remove(pending, ec);
    return true;
  }
  if (!persist(opt, "faults", "fault", ext, text,
               {{"phase", failure->phase}, {"what", failure->what}},
               reproduce_command(opt, iter))
           .empty())
    fs::remove(pending, ec);
  return false;
}

void print_fault_tally(const FaultTally& t) {
  std::printf(
      "  parse: %d with diagnostics, %d unscathed; strict rejects: %d\n"
      "  retime: %d converged, %d partial (deadline/cancel), %d skipped\n"
      "  oracle: %d result(s) verified, 0 rejected\n",
      t.diagnosed, t.parsed_clean, t.strict_threw, t.solved, t.partial,
      t.skipped, t.verified);
}

// ---------------------------------------------------------------------------
// solvers: every engine pair run_differential checks agrees.

constexpr double kEngineSeconds = 5.0;
constexpr int kMaxShrinkChecks = 4000;

DiffConfig solvers_config(const Options& opt) {
  DiffConfig cfg;
  cfg.enforce_elw = opt.enforce_elw;
  cfg.engine_seconds = kEngineSeconds;
  return cfg;
}

struct Shrunk {
  std::string path;  ///< persisted entry; empty when persistence failed
  int gates = 0;
};

/// Reports a divergence, shrinks the circuit to a 1-minimal netlist that
/// still shows the same kind (a shrink that wandered into another bug
/// would file a misleading report), and persists it with its config block.
Shrunk shrink_and_persist(const Options& opt, const DiffConfig& cfg,
                          const Netlist& nl, const Divergence& first,
                          int iter, const std::string& reproduce) {
  std::fprintf(stderr, "DIVERGENCE at iteration %d: %s\n  %s\n", iter,
               first.kind.c_str(), first.detail.c_str());
  const ShrinkPredicate same_kind = [&](const Netlist& cand) {
    const DifferentialReport r = run_differential(cand, cfg);
    return std::any_of(
        r.divergences.begin(), r.divergences.end(),
        [&](const Divergence& d) { return d.kind == first.kind; });
  };
  Netlist minimal = nl;
  ShrinkResult shrink;
  try {
    ShrinkOptions so;
    so.max_checks = kMaxShrinkChecks;
    shrink = shrink_netlist(nl, same_kind, so);
    minimal = std::move(shrink.netlist);
  } catch (const std::exception& e) {
    // A flaky predicate (a real race, say) is itself worth keeping.
    std::fprintf(stderr, "  shrink failed (%s); keeping full circuit\n",
                 e.what());
  }
  std::fprintf(stderr, "  shrunk %zu -> %zu nodes (%zu gates, %d checks%s)\n",
               nl.node_count(), minimal.node_count(), minimal.gate_count(),
               shrink.checks, shrink.one_minimal ? ", 1-minimal" : "");

  SidecarFields fields = {{"expect", "divergent"},
                          {"kind", first.kind},
                          {"detail", first.detail}};
  append_diff_config(cfg, fields);
  std::ostringstream os;
  write_bench(os, minimal);
  return {persist(opt, "solvers", "div", ".bench", os.str(),
                  std::move(fields), reproduce),
          static_cast<int>(minimal.gate_count())};
}

bool solvers_iteration(const Options& opt, int iter, Rng& rng) {
  const GeneratorMode mode =
      opt.mode == "all" ? static_cast<GeneratorMode>(iter % kNumGeneratorModes)
                        : *parse_generator_mode(opt.mode);
  SpecRanges ranges;
  ranges.min_gates = 8;
  ranges.max_gates = 40;
  Netlist nl = generate_random_circuit(random_spec(mode, rng, ranges));
  const std::string reproduce = reproduce_command(opt, iter) + " --mode " +
                                generator_mode_name(mode) +
                                (opt.enforce_elw ? "" : " --no-elw");
  const DiffConfig cfg = solvers_config(opt);

  // The generator promises legal netlists: a lint error is its own
  // divergence kind, not a confusing solver disagreement. Warn-level dead
  // logic is swept, as a real flow would.
  DiagnosticSink lint_sink;
  lint_netlist(nl, lint_sink);
  DifferentialReport report;
  if (lint_sink.error_count() > 0) {
    report.divergences.push_back(
        {"generator-invalid", "generated netlist failed lint with " +
                                  std::to_string(lint_sink.error_count()) +
                                  " error(s)"});
  } else {
    if (lint_sink.warning_count() > 0) nl = repair_netlist(nl, lint_sink);
    report = run_differential(nl, cfg);
  }
  if (!report.divergent()) return true;
  shrink_and_persist(opt, cfg, nl, report.divergences.front(), iter,
                     reproduce);
  return false;
}

/// How a solvers corpus entry replays against its sidecar's promise.
enum class EntryVerdict { kNotSolvers, kUnreadable, kAsExpected, kFixed,
                          kRegression };

/// Replays `bench` under the DiffConfig its sidecar records; kNotSolvers
/// when it has no solvers sidecar.
EntryVerdict replay_solvers_entry(const fs::path& bench,
                                  std::string* summary) {
  const std::optional<std::string> sidecar =
      read_file(bench.string() + ".repro");
  const std::optional<ReplaySpec> spec =
      sidecar ? parse_replay_spec(*sidecar) : std::nullopt;
  if (!spec) return EntryVerdict::kNotSolvers;
  Netlist nl;
  try {
    nl = read_bench_file(bench.string());
  } catch (const std::exception& e) {
    *summary = e.what();
    return EntryVerdict::kUnreadable;
  }
  const DifferentialReport report = run_differential(nl, spec->cfg);
  *summary = report.summary();
  if (report.divergent() == spec->expect_divergent)
    return EntryVerdict::kAsExpected;
  return spec->expect_divergent ? EntryVerdict::kFixed
                                : EntryVerdict::kRegression;
}

struct PlantedCase {
  FaultKind kind;
  int engine;  // 0 = forest, 1 = closure
  GeneratorMode mode;
  std::uint64_t stream;  // fixed: the schedule ignores --seed
};

/// Plants ten faults; passes when at least nine are caught, none shrinks
/// above 12 gates, and every persisted entry replays as divergent.
bool solvers_self_check(const Options& opt) {
  // Result-corrupting faults are caught unconditionally; the input-skew
  // kinds need a circuit where the skewed quantity binds, so they draw
  // from register-dense (R_min) and near-critical (period) modes.
  const PlantedCase schedule[10] = {
      {FaultKind::kObjectiveSkew, 0, GeneratorMode::kUniform, 11},
      {FaultKind::kObjectiveSkew, 1, GeneratorMode::kRegisterDense, 12},
      {FaultKind::kRetimingPerturb, 0, GeneratorMode::kSkewedFanin, 13},
      {FaultKind::kRetimingPerturb, 1, GeneratorMode::kNearCritical, 14},
      {FaultKind::kStopDetailDrop, 0, GeneratorMode::kUniform, 15},
      {FaultKind::kStopDetailDrop, 1, GeneratorMode::kRegisterDense, 16},
      {FaultKind::kGainSkew, 0, GeneratorMode::kRegisterDense, 17},
      {FaultKind::kGainSkew, 1, GeneratorMode::kRegisterDense, 18},
      {FaultKind::kRminSkew, 0, GeneratorMode::kRegisterDense, 20},
      {FaultKind::kPeriodSkew, 0, GeneratorMode::kRegisterDense, 10},
  };
  int caught = 0, oversize = 0, unreplayed = 0;
  for (int k = 0; k < 10; ++k) {
    const PlantedCase& planted = schedule[k];
    std::uint64_t stream = 0xFD5BULL + 0x9e3779b97f4a7c15ULL * planted.stream;
    Rng rng(splitmix64(stream));
    SpecRanges ranges;
    ranges.min_gates = 10;
    ranges.max_gates = 14;
    const Netlist nl =
        generate_random_circuit(random_spec(planted.mode, rng, ranges));
    DiffConfig cfg = solvers_config(opt);
    cfg.enforce_elw = true;  // the self-check always exercises P2′
    cfg.fault = {planted.kind, planted.engine};

    const DifferentialReport report = run_differential(nl, cfg);
    const char* engine = planted.engine == 0 ? "forest" : "closure";
    if (!report.divergent()) {
      std::fprintf(stderr, "self-check %d/10: %s on %s: MISSED (%s)\n", k + 1,
                   fault_kind_name(planted.kind), engine,
                   report.summary().c_str());
      continue;
    }
    ++caught;
    const Divergence& first = report.divergences.front();
    const Shrunk shrunk = shrink_and_persist(opt, cfg, nl, first, k,
                                             "serelin_campaign self-check");
    if (shrunk.gates > 12) ++oversize;
    std::string summary = "not persisted";
    const bool replays = !shrunk.path.empty() &&
                         replay_solvers_entry(shrunk.path, &summary) ==
                             EntryVerdict::kAsExpected;
    if (!replays) ++unreplayed;
    std::fprintf(stderr,
                 "self-check %d/10: %s on %s: caught as %s, shrunk to %d "
                 "gate(s), %s%s\n",
                 k + 1, fault_kind_name(planted.kind), engine,
                 first.kind.c_str(), shrunk.gates,
                 replays ? "replays as divergent"
                         : "does NOT replay as divergent: ",
                 replays ? "" : summary.c_str());
  }
  std::printf(
      "serelin_campaign self-check: solvers caught %d/10 planted fault(s), "
      "%d over the 12-gate shrink target, %d not replaying as divergent\n",
      caught, oversize, unreplayed);
  return caught >= 9 && oversize == 0 && unreplayed == 0;
}

// ---------------------------------------------------------------------------
// crash: a run SIGKILLed at any crash point resumes bit-identically.

struct CrashTally {
  int kills = 0;        ///< forked children SIGKILLed mid-write
  int completed = 0;    ///< children that outran their kill index
  int resumes = 0;      ///< resumed runs checked against the reference
  std::int64_t points = 0;  ///< calibrated crash points across trials
};

/// Deterministic pipeline configuration: small simulation, oracle on, no
/// deadline — every run computes the same thing, so "resumed == fresh" is
/// checkable bitwise.
PipelineOptions trial_options(const std::string& scratch, bool durable) {
  PipelineOptions po;
  po.sim.patterns = 128;
  po.sim.frames = 4;
  po.sim.warmup = 8;
  po.verify = true;
  if (durable) {
    po.journal_path = scratch + "/journal.jsonl";
    po.checkpoint_path = scratch + "/ck.bin";
  }
  return po;
}

void reset_scratch(const std::string& scratch) {
  fs::remove_all(scratch);
  fs::create_directories(scratch);
}

bool crash_fail(const std::string& scratch, const std::string& what) {
  std::fprintf(stderr, "FAIL crash: %s\n  scratch kept at %s\n", what.c_str(),
               scratch.c_str());
  return false;
}

/// Post-resume audit: the scratch directory holds exactly the journal and
/// the checkpoint, both intact — no torn tails, rename temps or orphans.
bool audit_scratch(const std::string& scratch, std::string* detail) {
  bool saw_journal = false;
  bool saw_checkpoint = false;
  for (const fs::directory_entry& e : fs::directory_iterator(scratch)) {
    const std::string name = e.path().filename().string();
    if (name == "journal.jsonl") {
      saw_journal = true;
    } else if (name == "ck.bin") {
      saw_checkpoint = true;
    } else {
      *detail = "unexpected file in scratch: " + name;
      return false;
    }
  }
  if (!saw_journal || !saw_checkpoint) {
    *detail = std::string("missing artifact: ") +
              (saw_journal ? "ck.bin" : "journal.jsonl");
    return false;
  }
  const JournalRecovery rec = read_journal(scratch + "/journal.jsonl");
  if (rec.torn) {
    *detail = "journal still torn after resume: " + rec.detail;
    return false;
  }
  try {
    CheckpointImage image;
    if (!load_checkpoint(scratch + "/ck.bin", image)) {
      *detail = "checkpoint vanished after resume";
      return false;
    }
  } catch (const Error& e) {
    *detail = std::string("checkpoint damaged after resume: ") + e.what();
    return false;
  }
  return true;
}

/// Forks a child that dies at crash point `kill_at`, then resumes from
/// whatever it left and compares against `fresh`.
bool torture_once(const Netlist& nl, const CellLibrary& lib,
                  const std::string& scratch, const PipelineResult& fresh,
                  std::int64_t kill_at, CrashTally& tally) {
  const std::string at = " at kill index " + std::to_string(kill_at);
  reset_scratch(scratch);
  const pid_t pid = fork();
  if (pid < 0) return crash_fail(scratch, "fork failed");
  if (pid == 0) {
    // Child: the same run, armed to die mid-write. _exit on every path —
    // this address space shares the parent's stdio buffers.
    crash_arm(kill_at);
    int code = 3;
    try {
      code = run_pipeline(nl, lib, trial_options(scratch, true)).ok ? 0 : 3;
    } catch (...) {
    }
    _exit(code);
  }
  int status = 0;
  if (waitpid(pid, &status, 0) != pid)
    return crash_fail(scratch, "waitpid failed");
  if (WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL) {
    ++tally.kills;
  } else if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
    ++tally.completed;  // kill index beyond the run's crash points
  } else {
    return crash_fail(scratch, "child died abnormally (status " +
                                   std::to_string(status) + ")" + at);
  }

  // Resume against the exact bytes the kill left behind.
  PipelineOptions po = trial_options(scratch, true);
  po.resume_path = po.checkpoint_path;
  PipelineResult resumed;
  try {
    resumed = run_pipeline(nl, lib, po);
  } catch (const Error& e) {
    return crash_fail(scratch, "resume threw" + at + ": " + e.what());
  }
  ++tally.resumes;
  std::string detail;
  if (!resume_matches_fresh(fresh, resumed, &detail))
    return crash_fail(
        scratch, "resumed result diverges from fresh" + at + ": " + detail);
  if (!audit_scratch(scratch, &detail))
    return crash_fail(scratch, "audit" + at + ": " + detail);
  return true;
}

/// One trial: reference run, calibration, then K seeded kills, each
/// resumed and audited. A clean trial removes its scratch directory.
bool crash_trial(const Options& opt, int trial, Rng& rng, CrashTally& tally) {
  RandomCircuitSpec spec;
  spec.gates = static_cast<int>(rng.range(60, 180));
  spec.dffs = static_cast<int>(rng.range(12, 40));
  spec.inputs = 12;
  spec.outputs = 12;
  spec.name = "crash" + std::to_string(trial);
  spec.seed = rng.next();
  const Netlist nl = generate_random_circuit(spec);
  const CellLibrary lib;
  const std::string scratch = opt.out + "/trial" + std::to_string(trial);

  const PipelineResult fresh =
      run_pipeline(nl, lib, trial_options(scratch, false));
  if (!fresh.ok) return crash_fail(scratch, "reference run produced no result");

  // Calibration: count this configuration's crash points.
  reset_scratch(scratch);
  crash_arm(0);  // disarm and reset the counter
  run_pipeline(nl, lib, trial_options(scratch, true));
  const std::int64_t points = crash_points_passed();
  if (points <= 0)
    return crash_fail(scratch, "calibration found no crash points");
  tally.points += points;

  // Seeded kills across the whole window, always including the first and
  // last point (the arm/rename edges are the classic bugs).
  std::uint64_t kill_stream =
      opt.seed ^
      (0xc2b2ae3d27d4eb4fULL * static_cast<std::uint64_t>(trial + 1));
  Rng kill_rng(splitmix64(kill_stream));
  std::vector<std::int64_t> kill_points = {1};
  if (points > 1) kill_points.push_back(points);
  while (static_cast<int>(kill_points.size()) < opt.kills)
    kill_points.push_back(1 + static_cast<std::int64_t>(kill_rng.below(
                                  static_cast<std::uint64_t>(points))));
  for (const std::int64_t k : kill_points)
    if (!torture_once(nl, lib, scratch, fresh, k, tally)) return false;
  fs::remove_all(scratch);
  return true;
}

void print_crash_tally(const CrashTally& t) {
  std::printf(
      "  %d SIGKILL(s) landed, %d child run(s) outran their kill index\n"
      "  %d resume(s) bit-identical to fresh; %lld crash point(s) "
      "calibrated\n",
      t.kills, t.completed, t.resumes, static_cast<long long>(t.points));
}

/// A torn journal tail must be detected and recovered, a byte-flipped
/// checkpoint rejected, and a mini campaign must land kills.
bool crash_self_check(const Options& opt) {
  const std::string scratch = opt.out + "/crash-self-check";
  reset_scratch(scratch);

  const std::string jpath = scratch + "/torn.jsonl";
  {
    JournalWriter w(jpath, JournalWriter::Mode::kTruncate);
    w.append("{\"a\":1}");
    w.append("{\"b\":2}");
  }
  {
    std::string bytes = frame_journal_record("{\"c\":3}");
    bytes.resize(bytes.size() / 2);  // torn mid-frame
    // Deliberate raw append: the point is to fabricate a torn tail that
    // atomic_io would refuse to produce.
    FILE* f = std::fopen(  // NOLINT(serelin-no-bare-artifact-write)
        jpath.c_str(), "ab");
    if (!f) return crash_fail(scratch, "self-check: cannot append torn tail");
    std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
  }
  const JournalRecovery rec = read_journal(jpath);
  if (!rec.torn || rec.records.size() != 2)
    return crash_fail(scratch, "self-check: torn tail not detected");
  recover_journal(jpath);
  if (read_journal(jpath).torn)
    return crash_fail(scratch, "self-check: recovery left the journal torn");

  const std::string ckpath = scratch + "/ck.bin";
  CheckpointImage image;
  image.kind = "pipeline";
  image.fingerprint = 42;
  image.sections.emplace_back("pipeline", std::string("\x01\x02", 2));
  save_checkpoint(ckpath, image);
  std::optional<std::string> bytes = read_file(ckpath);
  if (!bytes)
    return crash_fail(scratch, "self-check: cannot reread checkpoint");
  (*bytes)[bytes->size() / 2] ^= 0x40;
  atomic_write_file(ckpath, *bytes);
  try {
    CheckpointImage damaged;
    load_checkpoint(ckpath, damaged);
    return crash_fail(scratch, "self-check: damaged checkpoint was accepted");
  } catch (const ParseError&) {
    // expected
  }

  Options mini = opt;
  mini.kills = 5;
  std::uint64_t stream = mini.seed + 0x9e3779b97f4a7c15ULL;
  Rng rng(splitmix64(stream));
  CrashTally tally;
  if (!crash_trial(mini, 0, rng, tally)) return false;
  if (tally.kills == 0)
    return crash_fail(scratch, "self-check: no child was actually SIGKILLed");
  fs::remove_all(scratch);
  std::printf("serelin_campaign self-check: crash ok (%d kill(s), %d "
              "resume(s), %lld crash point(s))\n",
              tally.kills, tally.resumes, static_cast<long long>(tally.points));
  return true;
}

// ---------------------------------------------------------------------------
// replay: the faults battery over every file, solvers entries against
// their sidecars.

Outcome run_replay(const std::string& dir) {
  std::vector<fs::path> files;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string ext = entry.path().extension().string();
    if (entry.is_regular_file() && (ext == ".bench" || ext == ".blif"))
      files.push_back(entry.path());
  }
  if (ec) {
    std::fprintf(stderr, "error: cannot read replay directory %s: %s\n",
                 dir.c_str(), ec.message().c_str());
    return Outcome::kUnreadable;
  }
  std::sort(files.begin(), files.end());

  FaultTally tally;
  int failures = 0, unreadable = 0;
  int entries = 0, regressions = 0, fixed = 0;
  int iter = 0;
  for (const fs::path& path : files) {
    const std::optional<std::string> text = read_file(path);
    if (!text) {
      std::fprintf(stderr, "UNREADABLE %s\n", path.string().c_str());
      ++unreadable;
      continue;
    }
    if (fault_battery(iter++, path.string(), *text,
                      path.extension() == ".blif", tally))
      ++failures;

    std::string summary;
    const EntryVerdict verdict = replay_solvers_entry(path, &summary);
    if (verdict == EntryVerdict::kNotSolvers) continue;
    ++entries;
    if (verdict == EntryVerdict::kUnreadable) {
      std::fprintf(stderr, "UNREADABLE %s: %s\n", path.string().c_str(),
                   summary.c_str());
      ++unreadable;
    } else if (verdict == EntryVerdict::kFixed) {
      std::fprintf(stderr,
                   "FIXED %s: expected divergent, now clean (entry can be "
                   "retired)\n",
                   path.string().c_str());
      ++fixed;
    } else if (verdict == EntryVerdict::kRegression) {
      std::fprintf(stderr, "REGRESSION %s: expected clean, got %s\n",
                   path.string().c_str(), summary.c_str());
      ++regressions;
    }
  }
  std::printf(
      "serelin_campaign replay: %zu file(s) from %s, %d battery failure(s), "
      "%d unreadable\n"
      "  solvers: %d entr%s, %d regression(s), %d fixed\n",
      files.size(), dir.c_str(), failures, unreadable, entries,
      entries == 1 ? "y" : "ies", regressions, fixed);
  if (failures + regressions > 0) return Outcome::kFailed;
  return unreadable > 0 ? Outcome::kUnreadable : Outcome::kClean;
}

Outcome run_command(const Options& opt) {
  const std::string name = opt.command->name;
  if (name == "replay") return run_replay(opt.out);

  std::error_code ec;
  fs::create_directories(opt.out, ec);
  if (ec || !fs::is_directory(opt.out)) {
    std::fprintf(stderr, "error: cannot create output directory %s: %s\n",
                 opt.out.c_str(),
                 ec ? ec.message().c_str() : "not a directory");
    return Outcome::kInternal;
  }

  if (name == "faults") {
    FaultTally tally;
    const Outcome outcome = run_campaign(opt, [&](int iter, Rng& rng) {
      return faults_iteration(opt, iter, rng, tally);
    });
    if (outcome != Outcome::kFailed) print_fault_tally(tally);
    return outcome;
  }
  if (name == "solvers") {
    const Outcome outcome = run_campaign(opt, [&](int iter, Rng& rng) {
      return solvers_iteration(opt, iter, rng);
    });
    if (outcome != Outcome::kFailed)
      std::printf("  mode %s, ELW %s\n", opt.mode.c_str(),
                  opt.enforce_elw ? "on" : "off");
    return outcome;
  }
  if (name == "crash") {
    CrashTally tally;
    const Outcome outcome = run_campaign(opt, [&](int iter, Rng& rng) {
      return crash_trial(opt, iter, rng, tally);
    });
    if (outcome != Outcome::kFailed) print_crash_tally(tally);
    return outcome;
  }
  // self-check: both property self-checks, even when the first fails.
  const bool solvers_ok = solvers_self_check(opt);
  const bool crash_ok = crash_self_check(opt);
  return solvers_ok && crash_ok ? Outcome::kClean : Outcome::kFailed;
}

}  // namespace

int main(int argc, char** argv) {
  // Crash trials fork, and a forked child must not inherit pool threads
  // (they are lost in the child and any lock they held deadlocks it). Run
  // the whole process serial: results do not depend on the thread count
  // (docs/PARALLELISM.md).
  set_execution_threads(1);
  CancelToken interrupt;
  SignalGuard guard(interrupt);
  g_signals = &guard;
  const Options opt = parse_args(argc, argv);
  try {
    return exit_code(run_command(opt));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return exit_code(Outcome::kInternal);
  }
}
