// bench_report — runs the parallel hot-path kernels (W/D construction,
// exact and signature observability, the SER sweep) at a ladder of worker
// counts and records wall time + speedup into a JSON file, so the repo's
// perf trajectory is measured and versioned instead of asserted.
//
//   bench_report [--out BENCH_parallel.json] [--gates N] [--dffs N]
//                [--threads 1,2,4,8] [--repeat R]
//                [--kernels wd_construct,incr_relabel,...]
//
// Each (kernel, threads) cell reports the best of R runs (default 2) and
// the speedup relative to the same kernel at 1 thread. The tool also
// cross-checks that every thread count produced bit-identical results and
// refuses to write the report otherwise — the determinism contract of
// docs/PARALLELISM.md is enforced at measurement time.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "check/wd_matrices.hpp"
#include "flow/journal.hpp"
#include "gen/random_circuit.hpp"
#include "netlist/cell_library.hpp"
#include "rgraph/retiming_graph.hpp"
#include "ser/ser_analyzer.hpp"
#include "sim/observability.hpp"
#include "support/atomic_io.hpp"
#include "support/check.hpp"
#include "support/metrics.hpp"
#include "support/parallel.hpp"
#include "support/stopwatch.hpp"
#include "support/strings.hpp"
#include "timing/graph_timing.hpp"

namespace {

using namespace serelin;

struct Cell {
  int threads = 1;
  double wall_ms = 0.0;
  double speedup = 1.0;
};

struct KernelReport {
  std::string name;
  std::string config;
  std::vector<Cell> cells;
  bool identical = true;  // results bit-identical across thread counts
  /// Named-counter totals of one run (all zero when SERELIN_TRACE=OFF).
  MetricsSnapshot counters;
  /// Counter totals identical for every thread count (the determinism
  /// contract extends to the instrumentation; docs/OBSERVABILITY.md).
  bool counters_identical = true;
};

/// Every kernel, in run order; --kernels names are checked against it.
constexpr const char* kKernelNames[] = {"wd_construct", "incr_relabel",
                                        "obs_exact",    "obs_signature",
                                        "ser_sweep"};

std::string kernel_list() {
  std::string out;
  for (const char* k : kKernelNames) {
    if (!out.empty()) out += ',';
    out += k;
  }
  return out;
}

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr, "error: %s\n", msg.c_str());
  std::fprintf(stderr,
               "usage: bench_report [--out f.json] [--gates N] [--dffs N]"
               " [--threads 1,2,4,8] [--repeat R] [--kernels %s]\n",
               kernel_list().c_str());
  std::exit(64);
}

/// Checked "--gates banana" rejection: whole-string integer in [lo, hi].
int parse_count(const char* flag, const char* arg, int lo, int hi) {
  const auto v = parse_int(arg, lo, hi);
  if (!v)
    usage_error(std::string(flag) + " wants an integer in [" +
                std::to_string(lo) + ", " + std::to_string(hi) + "], got '" +
                arg + "'");
  return static_cast<int>(*v);
}

std::vector<int> parse_threads(const char* arg) {
  std::vector<int> out;
  std::string s(arg);
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    const auto t = parse_int(s.substr(pos, comma - pos), 1, 4096);
    if (!t) usage_error("--threads wants comma-separated counts >= 1");
    out.push_back(static_cast<int>(*t));
    pos = comma + 1;
  }
  if (out.empty()) usage_error("--threads needs at least one count");
  return out;
}

std::vector<std::string> parse_kernels(const char* arg) {
  std::vector<std::string> out;
  std::string s(arg);
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    std::string name = s.substr(pos, comma - pos);
    if (!name.empty()) {
      if (std::find(std::begin(kKernelNames), std::end(kKernelNames),
                    name) == std::end(kKernelNames))
        usage_error("--kernels: unknown kernel '" + name + "' (known: " +
                    kernel_list() + ")");
      out.push_back(std::move(name));
    }
    pos = comma + 1;
  }
  if (out.empty()) usage_error("--kernels needs at least one name");
  return out;
}

/// Times `run` (which returns a fingerprint of its result) at each worker
/// count: best of `repeat` runs per count, bit-identity checked against
/// the 1-thread fingerprint.
template <typename RunFn>
KernelReport measure(const std::string& name, const std::string& config,
                     const std::vector<int>& thread_counts, int repeat,
                     RunFn&& run) {
  KernelReport rep;
  rep.name = name;
  rep.config = config;
  std::vector<std::uint64_t> reference;
  bool have_counters = false;
  double t1_ms = 0.0;
  for (int threads : thread_counts) {
    set_execution_threads(threads);
    double best_ms = 0.0;
    std::vector<std::uint64_t> fingerprint;
    MetricsSnapshot counters;
    for (int r = 0; r < repeat; ++r) {
      const MetricsSnapshot before = metrics_snapshot();
      Stopwatch sw;
      fingerprint = run();
      const double ms = sw.seconds() * 1e3;
      counters = metrics_snapshot() - before;
      if (r == 0 || ms < best_ms) best_ms = ms;
    }
    if (reference.empty())
      reference = fingerprint;
    else if (fingerprint != reference)
      rep.identical = false;
    if (!have_counters) {
      rep.counters = counters;
      have_counters = true;
    } else if (!(counters == rep.counters)) {
      rep.counters_identical = false;
    }
    if (threads == thread_counts.front()) t1_ms = best_ms;
    rep.cells.push_back({threads, best_ms, t1_ms / best_ms});
    std::printf("  %-14s threads=%-2d  %10.1f ms  (x%.2f)%s%s\n",
                name.c_str(), threads, best_ms, t1_ms / best_ms,
                rep.identical ? "" : "  MISMATCH",
                rep.counters_identical ? "" : "  COUNTER-MISMATCH");
  }
  set_execution_threads(0);
  return rep;
}

/// Order-sensitive 64-bit fingerprint (FNV-1a over the byte stream).
template <typename T>
std::uint64_t fingerprint_bytes(const std::vector<T>& data) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto* bytes = reinterpret_cast<const unsigned char*>(data.data());
  for (std::size_t i = 0; i < data.size() * sizeof(T); ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

void write_json(const char* path, const RandomCircuitSpec& spec,
                const std::vector<KernelReport>& kernels) {
  JsonObject circuit;
  circuit.set("gates", spec.gates)
      .set("dffs", spec.dffs)
      .set("inputs", spec.inputs)
      .set("outputs", spec.outputs)
      .set("seed", static_cast<std::int64_t>(spec.seed));
  std::string kernel_list;
  for (const KernelReport& rep : kernels) {
    std::string results;
    for (const Cell& c : rep.cells) {
      JsonObject cell;
      cell.set("threads", c.threads)
          .set("wall_ms", c.wall_ms)
          .set("speedup", c.speedup);
      results += (results.empty() ? "" : ",") + cell.str();
    }
    JsonObject kernel;
    kernel.set("kernel", rep.name)
        .set("config", rep.config)
        .set("bit_identical_across_threads", rep.identical)
        .set("counters_identical_across_threads", rep.counters_identical)
        .set_json("counters", metrics_json(rep.counters))
        .set_json("results", "[" + results + "]");
    kernel_list += (kernel_list.empty() ? "" : ",") + kernel.str();
  }
  JsonObject report;
  report.set_json("circuit", circuit.str())
      .set("hardware_threads", hardware_threads())
      .set_json("kernels", "[" + kernel_list + "]");
  // Atomic replace: a crash or kill mid-report leaves the previous report
  // (or nothing), never half a JSON document for bench_gate.py to choke on.
  atomic_write_file(path, report.str() + "\n");
}


}  // namespace

int main(int argc, char** argv) {
  const char* out_path = "BENCH_parallel.json";
  RandomCircuitSpec spec;
  spec.name = "micro";
  spec.gates = 10000;
  spec.dffs = 2500;
  spec.inputs = 32;
  spec.outputs = 32;
  spec.mean_fanin = 2.0;
  spec.seed = 777;
  std::vector<int> threads = {1, 2, 4, 8};
  int repeat = 2;
  std::vector<std::string> only_kernels;  // empty = run everything

  try {
    for (int i = 1; i < argc; ++i) {
      auto value = [&]() -> const char* {
        if (i + 1 >= argc)
          usage_error(std::string("missing value for ") + argv[i]);
        return argv[++i];
      };
      if (!std::strcmp(argv[i], "--out")) out_path = value();
      else if (!std::strcmp(argv[i], "--gates"))
        spec.gates = parse_count("--gates", value(), 1, 10000000);
      else if (!std::strcmp(argv[i], "--dffs"))
        spec.dffs = parse_count("--dffs", value(), 0, 10000000);
      else if (!std::strcmp(argv[i], "--threads")) threads = parse_threads(value());
      else if (!std::strcmp(argv[i], "--repeat"))
        repeat = parse_count("--repeat", value(), 1, 1000);
      else if (!std::strcmp(argv[i], "--kernels"))
        only_kernels = parse_kernels(value());
      else
        usage_error(std::string("unknown option ") + argv[i]);
    }
    auto want = [&](const char* name) {
      if (only_kernels.empty()) return true;
      for (const std::string& k : only_kernels)
        if (k == name) return true;
      return false;
    };

    std::printf("bench_report: %d-gate circuit, %d hardware thread(s)\n",
                spec.gates, hardware_threads());
    const Netlist nl = generate_random_circuit(spec);
    CellLibrary lib;
    const RetimingGraph g(nl, lib);
    std::vector<KernelReport> kernels;

    if (want("wd_construct")) {
      kernels.push_back(measure(
          "wd_construct", "all-pairs W/D over the retiming graph", threads,
          repeat, [&] {
            // Times the exact reference's construction.
            const WdMatrices wd(g);  // NOLINT(serelin-wd-dense-gated)
            std::vector<std::uint64_t> fp;
            fp.push_back(fingerprint_bytes(wd.candidate_periods()));
            return fp;
          }));
    }

    if (want("incr_relabel")) {
      kernels.push_back(measure(
          "incr_relabel", "4096 single-vertex moves, cone-incremental",
          threads, repeat, [&] {
            GraphTiming timing(g, TimingParams{100.0, 0.0, 2.0});
            Retiming r = g.zero_retiming();
            timing.compute(r);
            // Deterministic random walk of ±1 moves over the gate
            // vertices; a move is applied only when the O(deg) precheck
            // shows it keeps every incident w_r non-negative, so every
            // update() takes the valid (cone-relabel) path.
            Rng rng = stream_rng(spec.seed, /*index=*/41);
            const auto& gates = g.gate_vertices();
            std::uint64_t applied = 0;
            for (int step = 0; step < 4096; ++step) {
              const VertexId mv = gates[rng.next() % gates.size()];
              const bool inc = rng.chance(0.5);
              const auto& edges = inc ? g.out_edges(mv) : g.in_edges(mv);
              bool ok = true;
              for (EdgeId e : edges)
                if (g.wr(e, r) < 1) { ok = false; break; }
              if (!ok) continue;
              r[mv] += inc ? 1 : -1;
              timing.update(r, std::span<const VertexId>(&mv, 1));
              ++applied;
            }
            std::vector<double> labels;
            labels.reserve(g.vertex_count() * 3);
            for (VertexId v = 0; v < g.vertex_count(); ++v) {
              labels.push_back(timing.arrival(v));
              labels.push_back(timing.max_after(v));
              labels.push_back(timing.min_after(v));
            }
            std::vector<std::uint64_t> fp;
            fp.push_back(fingerprint_bytes(labels));
            fp.push_back(fingerprint_bytes(r));
            fp.push_back(applied);
            return fp;
          }));
    }

    if (want("obs_exact")) {
      SimConfig cfg;
      cfg.patterns = 256;
      cfg.frames = 2;
      cfg.warmup = 4;
      kernels.push_back(measure(
          "obs_exact", "flip-and-resimulate, 256 patterns x 2 frames",
          threads, repeat, [&] {
            ObservabilityAnalyzer engine(nl, cfg);
            const ObsResult r =
                engine.run(ObservabilityAnalyzer::Mode::kExact);
            return std::vector<std::uint64_t>{fingerprint_bytes(r.obs)};
          }));
    }

    if (want("obs_signature")) {
      SimConfig cfg;
      cfg.patterns = 2048;
      cfg.frames = 8;
      cfg.warmup = 8;
      kernels.push_back(measure(
          "obs_signature", "backward ODC, 2048 patterns x 8 frames", threads,
          repeat, [&] {
            ObservabilityAnalyzer engine(nl, cfg);
            const ObsResult r =
                engine.run(ObservabilityAnalyzer::Mode::kSignature);
            return std::vector<std::uint64_t>{fingerprint_bytes(r.obs)};
          }));
    }

    if (want("ser_sweep")) {
      SerOptions opt;
      opt.timing = {100.0, 0.0, 2.0};
      opt.sim.patterns = 512;
      opt.sim.frames = 4;
      opt.sim.warmup = 8;
      kernels.push_back(measure(
          "ser_sweep", "Eq.(4) sweep, signature obs, 512 patterns x 4 frames",
          threads, repeat, [&] {
            const SerReport rep = analyze_ser(nl, lib, opt);
            std::vector<std::uint64_t> fp;
            fp.push_back(fingerprint_bytes(rep.contribution));
            fp.push_back(fingerprint_bytes(std::vector<double>{
                rep.total, rep.combinational, rep.sequential}));
            return fp;
          }));
    }

    bool all_identical = true;
    for (const KernelReport& k : kernels)
      all_identical &= k.identical && k.counters_identical;
    SERELIN_REQUIRE(all_identical,
                    "kernel results or counter totals differ across thread "
                    "counts — determinism contract violated, refusing to "
                    "write report");
    write_json(out_path, spec, kernels);
    std::printf("wrote %s\n", out_path);
    return 0;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 70;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "internal error: %s\n", e.what());
    return 70;
  }
}
