// fuzz_solvers — coverage-guided differential fuzzing over the solver
// stack.
//
//   fuzz_solvers [--seed S] [--iters N] [--max-seconds T] [--mode M]
//                [--min-gates A] [--max-gates B] [--patterns K]
//                [--no-elw] [--area-weight W] [--engine-seconds E]
//                [--max-shrink-checks C] [--corpus DIR] [--journal FILE]
//                [--replay DIR] [--self-check] [--verbose]
//
// Every iteration draws a constrained random circuit (gen/random_circuit
// generator modes; --mode picks one, default round-robins all four) and
// hands it to run_differential (src/check/differential.hpp), which runs
// the forest solver, the closure solver, exhaustive search, the FEAS
// min-period retimer against the exact W/D min-period search, incremental
// relabeling and netlist materialization against each other and the
// independent RetimingOracle. Any violated agreement is a divergence: the circuit is
// delta-debugged down to a 1-minimal netlist that still shows the same
// divergence kind (src/check/shrink.hpp), persisted to the corpus as
// div-<contenthash16>.bench with a `fuzz_solvers v1` .repro sidecar
// carrying the full DiffConfig, and the tool exits 77 ("divergence
// found", docs/ROBUSTNESS.md exit-code registry).
//
// --replay DIR re-runs every corpus entry whose sidecar starts with the
// `fuzz_solvers v1` marker (fault_harness entries in the same directory
// are skipped) under its recorded config and compares the observed
// verdict with the sidecar's `expect:` line — expect-clean entries that
// diverge are regressions (exit 77); expect-divergent entries that no
// longer reproduce are reported as fixed.
//
// --self-check proves the harness's detection power before trusting a
// clean campaign: a fixed schedule of ten planted faults (fault_inject
// style — skewed gains, corrupted retimings, stripped stop_details, ...)
// runs through the same pipeline, and at least nine must be caught,
// shrunk and persisted with working replay commands. Exits 1 otherwise.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check/differential.hpp"
#include "check/shrink.hpp"
#include "flow/fuzz_events.hpp"
#include "flow/journal.hpp"
#include "gen/random_circuit.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/validate.hpp"
#include "support/corpus.hpp"
#include "support/diag.hpp"
#include "support/rng.hpp"
#include "support/signals.hpp"
#include "support/strings.hpp"

namespace {

namespace fs = std::filesystem;
using namespace serelin;

struct FuzzOptions {
  std::uint64_t seed = 1;
  int iters = 200;
  double max_seconds = 0.0;  // 0 = unbounded
  std::string mode = "all";  // generator mode name, or "all" (round-robin)
  int min_gates = 8;
  int max_gates = 40;
  int patterns = 128;       // simulation K; multiple of 64
  bool enforce_elw = true;
  double area_weight = 0.0;
  double engine_seconds = 5.0;
  int max_shrink_checks = 4000;
  std::string corpus = "tests/corpus/found";
  bool corpus_set = false;  // self-check defaults elsewhere unless given
  std::string journal_path;
  std::string replay;
  bool self_check = false;
  bool verbose = false;
};

[[noreturn]] void usage(const char* msg) {
  if (msg) std::fprintf(stderr, "error: %s\n", msg);
  std::fprintf(
      stderr,
      "usage: fuzz_solvers [--seed S] [--iters N] [--max-seconds T]\n"
      "                    [--mode all|uniform|skewed-fanin|register-dense|"
      "near-critical]\n"
      "                    [--min-gates A] [--max-gates B] [--patterns K]\n"
      "                    [--no-elw] [--area-weight W] "
      "[--engine-seconds E]\n"
      "                    [--max-shrink-checks C] [--corpus DIR]\n"
      "                    [--journal FILE] [--replay DIR] [--self-check]\n"
      "                    [--verbose]\n");
  std::exit(64);
}

FuzzOptions parse_args(int argc, char** argv) {
  FuzzOptions opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
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
    } else if (a == "--mode") {
      opt.mode = value();
      if (opt.mode != "all" && !parse_generator_mode(opt.mode))
        usage(("unknown generator mode " + opt.mode).c_str());
    } else if (a == "--min-gates") {
      const auto v = parse_int(value(), 1, 100000);
      if (!v) usage("--min-gates wants a positive integer");
      opt.min_gates = static_cast<int>(*v);
    } else if (a == "--max-gates") {
      const auto v = parse_int(value(), 1, 100000);
      if (!v) usage("--max-gates wants a positive integer");
      opt.max_gates = static_cast<int>(*v);
    } else if (a == "--patterns") {
      const auto v = parse_int(value(), 64, 1 << 20);
      if (!v || *v % 64 != 0)
        usage("--patterns wants a positive multiple of 64");
      opt.patterns = static_cast<int>(*v);
    } else if (a == "--no-elw") {
      opt.enforce_elw = false;
    } else if (a == "--area-weight") {
      const auto v = parse_double(value());
      if (!v || *v < 0) usage("--area-weight wants a non-negative number");
      opt.area_weight = *v;
    } else if (a == "--engine-seconds") {
      const auto v = parse_double(value());
      if (!v || *v < 0) usage("--engine-seconds wants a non-negative number");
      opt.engine_seconds = *v;
    } else if (a == "--max-shrink-checks") {
      const auto v = parse_int(value(), 1, 1000000);
      if (!v) usage("--max-shrink-checks wants a positive integer");
      opt.max_shrink_checks = static_cast<int>(*v);
    } else if (a == "--corpus") {
      opt.corpus = value();
      opt.corpus_set = true;
    } else if (a == "--journal") {
      opt.journal_path = value();
    } else if (a == "--replay") {
      opt.replay = value();
    } else if (a == "--self-check") {
      opt.self_check = true;
    } else if (a == "--verbose") {
      opt.verbose = true;
    } else {
      usage(("unknown option " + a).c_str());
    }
  }
  if (opt.min_gates > opt.max_gates)
    usage("--min-gates must not exceed --max-gates");
  return opt;
}

DiffConfig make_config(const FuzzOptions& opt) {
  DiffConfig cfg;
  cfg.patterns = opt.patterns;
  cfg.enforce_elw = opt.enforce_elw;
  cfg.area_weight = opt.area_weight;
  cfg.engine_seconds = opt.engine_seconds;
  return cfg;
}

// ---------------------------------------------------------------------------
// Corpus sidecar format: `fuzz_solvers v1` marker, `expect:` verdict, the
// full DiffConfig as key/value lines, then the repro commands.

constexpr const char* kSidecarMarker = "fuzz_solvers v1";

std::string render_sidecar(const DiffConfig& cfg, bool expect_divergent,
                           const std::string& kind, const std::string& detail,
                           const std::string& reproduce,
                           const std::string& corpus) {
  std::ostringstream os;
  os << kSidecarMarker << "\n";
  os << "expect: " << (expect_divergent ? "divergent" : "clean") << "\n";
  if (!kind.empty()) os << "kind: " << kind << "\n";
  if (!detail.empty()) {
    std::string one_line = detail;
    std::replace(one_line.begin(), one_line.end(), '\n', ' ');
    os << "detail: " << one_line << "\n";
  }
  os << "patterns: " << cfg.patterns << "\n";
  os << "frames: " << cfg.frames << "\n";
  os << "warmup: " << cfg.warmup << "\n";
  os << "sim_seed: " << cfg.sim_seed << "\n";
  os << "enforce_elw: " << (cfg.enforce_elw ? 1 : 0) << "\n";
  os << "area_weight: " << cfg.area_weight << "\n";
  os << "exhaustive_max_gates: " << cfg.exhaustive_max_gates << "\n";
  os << "exhaustive_bound: " << cfg.exhaustive_bound << "\n";
  os << "engine_seconds: " << cfg.engine_seconds << "\n";
  os << "walk_moves: " << cfg.walk_moves << "\n";
  os << "walk_seed: " << cfg.walk_seed << "\n";
  os << "fault_kind: " << fault_kind_name(cfg.fault.kind) << "\n";
  os << "fault_engine: " << cfg.fault.engine << "\n";
  if (!reproduce.empty()) os << "reproduce: " << reproduce << "\n";
  os << "replay: fuzz_solvers --replay " << corpus << "\n";
  return os.str();
}

struct ReplaySpec {
  DiffConfig cfg;
  bool expect_divergent = false;
  bool valid = false;
};

ReplaySpec parse_sidecar(const std::string& text) {
  ReplaySpec spec;
  std::istringstream is(text);
  std::string line;
  if (!std::getline(is, line) || line != kSidecarMarker) return spec;
  spec.valid = true;
  while (std::getline(is, line)) {
    const std::size_t colon = line.find(": ");
    if (colon == std::string::npos) continue;
    const std::string key = line.substr(0, colon);
    const std::string val = line.substr(colon + 2);
    if (key == "expect") {
      spec.expect_divergent = val == "divergent";
    } else if (key == "patterns") {
      if (const auto v = parse_int(val, 64, 1 << 20)) {
        spec.cfg.patterns = static_cast<int>(*v);
      }
    } else if (key == "frames") {
      if (const auto v = parse_int(val, 1, 1000))
        spec.cfg.frames = static_cast<int>(*v);
    } else if (key == "warmup") {
      if (const auto v = parse_int(val, 0, 100000))
        spec.cfg.warmup = static_cast<int>(*v);
    } else if (key == "sim_seed") {
      if (const auto v = parse_uint(val)) spec.cfg.sim_seed = *v;
    } else if (key == "enforce_elw") {
      spec.cfg.enforce_elw = val != "0";
    } else if (key == "area_weight") {
      if (const auto v = parse_double(val)) spec.cfg.area_weight = *v;
    } else if (key == "exhaustive_max_gates") {
      if (const auto v = parse_int(val, 0, 64))
        spec.cfg.exhaustive_max_gates = static_cast<std::size_t>(*v);
    } else if (key == "exhaustive_bound") {
      if (const auto v = parse_int(val, 0, 16))
        spec.cfg.exhaustive_bound = static_cast<int>(*v);
    } else if (key == "engine_seconds") {
      if (const auto v = parse_double(val)) spec.cfg.engine_seconds = *v;
    } else if (key == "walk_moves") {
      if (const auto v = parse_int(val, 0, 100000))
        spec.cfg.walk_moves = static_cast<int>(*v);
    } else if (key == "walk_seed") {
      if (const auto v = parse_uint(val)) spec.cfg.walk_seed = *v;
    } else if (key == "fault_kind") {
      for (int k = 0; k < kNumFaultKinds; ++k) {
        const auto kind = static_cast<FaultKind>(k);
        if (val == fault_kind_name(kind)) spec.cfg.fault.kind = kind;
      }
    } else if (key == "fault_engine") {
      if (const auto v = parse_int(val, 0, 1))
        spec.cfg.fault.engine = static_cast<int>(*v);
    }
  }
  return spec;
}

// ---------------------------------------------------------------------------
// Divergence handling: shrink, persist, journal.

struct DivergenceRecord {
  std::string corpus_path;
  int shrunk_nodes = 0;
  int shrunk_gates = 0;
  bool one_minimal = false;
};

DivergenceRecord handle_divergence(const FuzzOptions& opt,
                                   const DiffConfig& cfg, const Netlist& nl,
                                   const DifferentialReport& report,
                                   std::int64_t iteration,
                                   const std::string& reproduce,
                                   RunJournal& journal) {
  DivergenceRecord rec;
  const Divergence& first = report.divergences.front();
  std::fprintf(stderr, "DIVERGENCE at iteration %lld: %s\n  %s\n",
               static_cast<long long>(iteration), first.kind.c_str(),
               first.detail.c_str());

  // Shrink to a 1-minimal netlist that still shows the SAME divergence
  // kind (a shrink that wanders into a different bug would produce a
  // misleading bug report).
  const std::string kind = first.kind;
  const ShrinkPredicate still_fails = [&](const Netlist& cand) {
    const DifferentialReport r = run_differential(cand, cfg);
    for (const Divergence& d : r.divergences)
      if (d.kind == kind) return true;
    return false;
  };
  Netlist minimal = nl;
  ShrinkResult shrink;
  try {
    ShrinkOptions so;
    so.max_checks = opt.max_shrink_checks;
    shrink = shrink_netlist(nl, still_fails, so);
    minimal = std::move(shrink.netlist);
  } catch (const std::exception& e) {
    // A flaky predicate (e.g. a real race) is itself worth keeping; fall
    // back to persisting the unshrunk circuit.
    std::fprintf(stderr, "  shrink failed (%s); keeping full circuit\n",
                 e.what());
  }
  rec.shrunk_nodes = static_cast<int>(minimal.node_count());
  rec.shrunk_gates = static_cast<int>(minimal.gate_count());
  rec.one_minimal = shrink.one_minimal;
  journal_fuzz_shrink(journal, iteration,
                      static_cast<std::int64_t>(nl.node_count()),
                      static_cast<std::int64_t>(minimal.node_count()),
                      shrink.checks, shrink.one_minimal);
  std::fprintf(stderr,
               "  shrunk %zu -> %zu nodes (%d gates, %d checks%s)\n",
               nl.node_count(), minimal.node_count(), rec.shrunk_gates,
               shrink.checks, shrink.one_minimal ? ", 1-minimal" : "");

  std::ostringstream os;
  write_bench(os, minimal);
  const std::string sidecar =
      render_sidecar(cfg, /*expect_divergent=*/true, first.kind, first.detail,
                     reproduce, opt.corpus);
  const PersistResult kept =
      persist_counterexample(opt.corpus, "div", ".bench", os.str(), sidecar);
  rec.corpus_path = kept.path;
  if (kept.path.empty()) {
    std::fprintf(stderr, "  WARNING: could not persist counterexample to %s\n",
                 opt.corpus.c_str());
  } else {
    std::fprintf(stderr, "  counterexample: %s%s\n", kept.path.c_str(),
                 kept.deduplicated ? " (already in corpus)" : "");
  }
  journal_fuzz_divergence(journal, iteration, first, rec.corpus_path);
  return rec;
}

// ---------------------------------------------------------------------------
// Fuzzing campaign.

/// Set by main(); lets the iteration loops stop cleanly on SIGINT/SIGTERM.
const SignalGuard* g_signals = nullptr;

int run_fuzz(const FuzzOptions& opt, RunJournal& journal) {
  const auto t0 = std::chrono::steady_clock::now();
  const DiffConfig base = make_config(opt);
  int done = 0;
  for (int iter = 0; iter < opt.iters; ++iter, ++done) {
    if (opt.max_seconds > 0) {
      const std::chrono::duration<double> elapsed =
          std::chrono::steady_clock::now() - t0;
      if (elapsed.count() >= opt.max_seconds) break;
    }
    if (g_signals && g_signals->interrupted()) {
      std::fprintf(stderr, "fuzz: interrupted after %d iteration(s)\n", done);
      break;
    }

    std::uint64_t stream =
        opt.seed + 0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(iter + 1);
    Rng rng(splitmix64(stream));
    const GeneratorMode mode =
        opt.mode == "all"
            ? static_cast<GeneratorMode>(iter % kNumGeneratorModes)
            : *parse_generator_mode(opt.mode);
    SpecRanges ranges;
    ranges.min_gates = opt.min_gates;
    ranges.max_gates = opt.max_gates;
    const RandomCircuitSpec spec = random_spec(mode, rng, ranges);
    Netlist nl = generate_random_circuit(spec);

    // The generator promises structurally legal netlists; lint before
    // solving so a generator regression surfaces as its own divergence
    // kind instead of confusing the solver comparisons. Warn-level
    // findings (dead logic) are swept — the engines should only ever see
    // what a real flow would hand them.
    DiagnosticSink lint_sink;
    lint_netlist(nl, lint_sink);
    if (lint_sink.error_count() > 0) {
      DifferentialReport report;
      report.divergences.push_back(
          {"generator-invalid",
           "generated netlist failed lint with " +
               std::to_string(lint_sink.error_count()) + " error(s)"});
      const std::string reproduce =
          "fuzz_solvers --seed " + std::to_string(opt.seed) + " --iters " +
          std::to_string(iter + 1);
      handle_divergence(opt, base, nl, report, iter, reproduce, journal);
      return 77;
    }
    if (lint_sink.warning_count() > 0) nl = repair_netlist(nl, lint_sink);

    const DifferentialReport report = run_differential(nl, base);

    FuzzIterationEvent ev;
    ev.iteration = iter;
    ev.mode = generator_mode_name(mode);
    ev.circuit_seed = spec.seed;
    ev.gates = static_cast<int>(nl.gate_count());
    ev.dffs = static_cast<int>(nl.dff_count());
    ev.verdict = report.summary();
    ev.divergences = static_cast<std::int64_t>(report.divergences.size());
    journal_fuzz_iteration(journal, ev);

    if (opt.verbose && (iter + 1) % 25 == 0)
      std::fprintf(stderr, "  ... %d/%d iterations\n", iter + 1, opt.iters);

    if (report.divergent()) {
      const std::string reproduce =
          "fuzz_solvers --seed " + std::to_string(opt.seed) + " --iters " +
          std::to_string(iter + 1) + " --mode " + generator_mode_name(mode) +
          " --min-gates " + std::to_string(opt.min_gates) + " --max-gates " +
          std::to_string(opt.max_gates) +
          (opt.enforce_elw ? "" : " --no-elw");
      handle_divergence(opt, base, nl, report, iter, reproduce, journal);
      return 77;
    }
  }

  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - t0;
  std::printf(
      "fuzz_solvers: %d iteration(s) clean in %.1fs (seed %llu, mode %s)\n",
      done, elapsed.count(), static_cast<unsigned long long>(opt.seed),
      opt.mode.c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Replay: re-run every fuzz_solvers corpus entry under its recorded config.

int run_replay(const FuzzOptions& opt, RunJournal& journal) {
  std::vector<fs::path> files;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(opt.replay, ec)) {
    if (!entry.is_regular_file()) continue;
    if (entry.path().extension() == ".bench") files.push_back(entry.path());
  }
  if (ec) {
    std::fprintf(stderr, "error: cannot read replay directory %s: %s\n",
                 opt.replay.c_str(), ec.message().c_str());
    return 64;
  }
  std::sort(files.begin(), files.end());

  int replayed = 0, regressions = 0, fixed = 0, unreadable = 0;
  std::int64_t iteration = 0;
  for (const fs::path& path : files) {
    // Only fuzz_solvers entries carry the marker sidecar; fault_harness
    // counterexamples share the directory and are skipped here.
    const fs::path sidecar_path = path.string() + ".repro";
    std::string sidecar_text;
    {
      std::ifstream in(sidecar_path, std::ios::binary);
      if (!in) continue;
      std::ostringstream ss;
      ss << in.rdbuf();
      sidecar_text = ss.str();
    }
    const ReplaySpec spec = parse_sidecar(sidecar_text);
    if (!spec.valid) continue;

    ++replayed;
    Netlist nl;
    try {
      nl = read_bench_file(path.string());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "UNREADABLE %s: %s\n", path.string().c_str(),
                   e.what());
      ++unreadable;
      continue;
    }
    const DifferentialReport report = run_differential(nl, spec.cfg);

    FuzzIterationEvent ev;
    ev.iteration = iteration++;
    ev.mode = "replay:" + path.filename().string();
    ev.gates = static_cast<int>(nl.gate_count());
    ev.dffs = static_cast<int>(nl.dff_count());
    ev.verdict = report.summary();
    ev.divergences = static_cast<std::int64_t>(report.divergences.size());
    journal_fuzz_iteration(journal, ev);

    if (spec.expect_divergent && !report.divergent()) {
      std::fprintf(stderr,
                   "FIXED %s: expected divergent, now clean (entry can be "
                   "retired)\n",
                   path.string().c_str());
      ++fixed;
    } else if (!spec.expect_divergent && report.divergent()) {
      std::fprintf(stderr, "REGRESSION %s: expected clean, got %s\n",
                   path.string().c_str(), report.summary().c_str());
      ++regressions;
    } else if (opt.verbose) {
      std::fprintf(stderr, "ok %s: %s\n", path.string().c_str(),
                   report.summary().c_str());
    }
  }

  std::printf(
      "fuzz_solvers: replayed %d entr%s from %s: %d regression(s), %d "
      "fixed, %d unreadable\n",
      replayed, replayed == 1 ? "y" : "ies", opt.replay.c_str(), regressions,
      fixed, unreadable);
  if (regressions > 0) return 77;
  if (unreadable > 0) return 65;
  return 0;
}

// ---------------------------------------------------------------------------
// Self-check: plant ten faults, demand at least nine catches.

struct SelfCheckEntry {
  FaultKind kind;
  int engine;            // 0 = forest, 1 = closure
  GeneratorMode mode;
  std::uint64_t stream;  // fixed: the schedule ignores --seed
};

int run_self_check(const FuzzOptions& opt, RunJournal& journal) {
  // Result-corrupting faults (objective-skew, retiming-perturb,
  // stop-detail-drop) are caught unconditionally; the input-skew kinds
  // depend on the instance actually exercising the skewed quantity, so
  // their circuits are drawn from the modes that make the corresponding
  // constraint bind (register-dense for R_min, near-critical for the
  // period). The streams are fixed so the schedule is one deterministic
  // regression vector.
  const SelfCheckEntry schedule[10] = {
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

  const DiffConfig base = make_config(opt);
  int caught = 0;
  int oversize = 0;
  for (int k = 0; k < 10; ++k) {
    const SelfCheckEntry& entry = schedule[k];
    std::uint64_t stream = 0xFD5BULL + 0x9e3779b97f4a7c15ULL * entry.stream;
    Rng rng(splitmix64(stream));
    SpecRanges ranges;
    ranges.min_gates = 10;
    ranges.max_gates = 14;
    const RandomCircuitSpec spec = random_spec(entry.mode, rng, ranges);
    const Netlist nl = generate_random_circuit(spec);

    DiffConfig cfg = base;
    cfg.enforce_elw = true;  // self-check always exercises P2'
    cfg.fault.kind = entry.kind;
    cfg.fault.engine = entry.engine;

    const DifferentialReport report = run_differential(nl, cfg);
    const char* engine_name = entry.engine == 0 ? "forest" : "closure";
    if (!report.divergent()) {
      std::fprintf(stderr, "self-check %d/10: %s on %s: MISSED (%s)\n", k + 1,
                   fault_kind_name(entry.kind), engine_name,
                   report.summary().c_str());
      continue;
    }
    ++caught;

    const std::string reproduce = "fuzz_solvers --self-check";
    const DivergenceRecord rec =
        handle_divergence(opt, cfg, nl, report, k, reproduce, journal);
    if (rec.shrunk_gates > 12) ++oversize;
    std::fprintf(stderr,
                 "self-check %d/10: %s on %s: caught as %s, shrunk to %d "
                 "gate(s)%s\n",
                 k + 1, fault_kind_name(entry.kind), engine_name,
                 report.divergences.front().kind.c_str(), rec.shrunk_gates,
                 rec.one_minimal ? " (1-minimal)" : "");
  }

  // The persisted counterexamples must reproduce through --replay: run it
  // in-process over the self-check corpus.
  FuzzOptions replay_opt = opt;
  replay_opt.replay = opt.corpus;
  const int replay_rc = run_replay(replay_opt, journal);
  const bool replay_ok = replay_rc == 0;  // all expect-divergent reproduce

  std::printf(
      "fuzz_solvers: self-check caught %d/10 planted fault(s), %d over the "
      "12-gate shrink target, replay %s\n",
      caught, oversize, replay_ok ? "consistent" : "INCONSISTENT");
  return caught >= 9 && replay_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // First SIGINT/SIGTERM: finish the current iteration, finalize the
  // journal, exit 78. Second: die with the conventional signal status.
  CancelToken interrupt;
  SignalGuard guard(interrupt);
  g_signals = &guard;
  FuzzOptions opt = parse_args(argc, argv);
  if (opt.self_check && !opt.corpus_set) {
    // A bare --self-check must not write into the committed regression
    // corpus; its deterministic artifacts live under the build tree.
    opt.corpus = "build/fuzz-selfcheck-corpus";
  }

  RunJournal journal;
  if (!opt.journal_path.empty()) {
    try {
      journal = RunJournal(opt.journal_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: cannot open journal %s: %s\n",
                   opt.journal_path.c_str(), e.what());
      return 70;
    }
  }

  int rc = 0;
  if (opt.self_check) {
    rc = run_self_check(opt, journal);
  } else if (!opt.replay.empty()) {
    rc = run_replay(opt, journal);
  } else {
    rc = run_fuzz(opt, journal);
  }
  if (guard.interrupted()) {
    JsonObject o;
    o.set("event", "interrupted").set("cancelled", true);
    journal.write(o);
    if (rc == 0) rc = SignalGuard::kExitInterrupted;
  }
  if (!journal.healthy())
    std::fprintf(stderr, "warning: journal %s went unhealthy mid-run\n",
                 journal.path().c_str());
  return rc;
}
