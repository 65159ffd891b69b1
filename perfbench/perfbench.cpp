// perfbench: the end-to-end benchmark of serelin (run it through run.py).
//
// One process runs one workload as a closed loop with a single client: jobs
// run one after another, as `serelin_cli retime --verify --fallback` and
// the Table-I harness run them, and parallelism comes only from the shared
// pool, set to 1 or 4 workers with set_execution_threads.
//
//   --trace 0  repeated reads of every input file, then alternating 1- and
//              4-thread passes over the jobs until --seconds is spent;
//              prints the end-to-end metrics. wall_s and setup_s sum, job
//              by job (file by file), the fastest time seen, so that
//              stretches of host contention drop out (see fastest_pass).
//   --trace 1  untraced passes as above, then traced passes that call, from
//              this file, the public functions run_pipeline/run_experiment
//              call, in the same order, each bracketed by a steady clock
//              and a metrics_snapshot() delta; prints the per-layer split.
//
// Correctness gates (any violation exits 1 with "correct": false): every
// accepted result passed the oracle at the requested stage; every pass of a
// job, at 1 and at 4 threads, gives bit-identical retimings, written files
// and counter deltas; the traced composition reproduces the untraced
// program call bit for bit. The last stdout line is the result object,
// written with JsonObject, stored with atomic_write_file and re-parsed with
// the strict parser of src/serve/protocol before it is printed.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "check/oracle.hpp"
#include "core/initializer.hpp"
#include "core/objective.hpp"
#include "core/solver.hpp"
#include "flow/experiment.hpp"
#include "flow/journal.hpp"
#include "flow/pipeline.hpp"
#include "gen/paper_suite.hpp"
#include "gen/random_circuit.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/blif_io.hpp"
#include "netlist/cell.hpp"
#include "rgraph/apply.hpp"
#include "rgraph/retiming_graph.hpp"
#include "ser/ser_analyzer.hpp"
#include "serve/protocol.hpp"
#include "sim/observability.hpp"
#include "support/atomic_io.hpp"
#include "support/metrics.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace fs = std::filesystem;
using namespace serelin;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr std::array<int, 2> kThreads = {1, 4};
const CellLibrary kLib{};

// ---------------------------------------------------------------- workloads
//
// Every workload runs pinned circuits under the CLI / Table-I defaults,
// including the default simulation stimulus. The workload seed renames the
// nets (relabel below), so each seed feeds different input text to the
// parsers and writers while the retiming work stays the same. Seeding the
// circuits or the stimulus instead would make the cost heavy-tailed in the
// seed: 20000/5000 random circuits took 475 to 44,361 solver iterations over
// generator seeds 1-7, and this rand6k circuit 1,432 to 1,877 iterations
// over stimulus seeds 1-8.

// rand6k: the solver-bound case, a register-dense `serelin_cli generate
// 6000 3000` circuit (generator seed 1: 1,720 iterations for 3 commits, the
// solver about 70% of a 1-thread pass). The 20000/5000 circuits are
// solver-bound only at seeds whose passes take 8 to 64 s, too long to
// repeat within a run.
constexpr int kRandGates = 6000;
constexpr int kRandDffs = 3000;
constexpr std::uint64_t kRandCircuitSeed = 1;

// table1-small: the smallest Table-I stand-in row (generate_suite_circuit's
// default name-hash seed, as in the Table-I harness). All eight rows up to
// 10.2k gates take about 23 s per 1-thread pass and two rows about 5 s, too
// long to repeat often enough within a run on a noisy host; this row keeps
// the stage shares (observability and SER about 90%, the solver under 10%).
constexpr const char* kTableRow = "b14_1_opt";

// examples-batch: the committed example circuits plus two seeded random
// circuits, each written in both formats. Circuits this small make per-call
// fixed costs and thread dispatch visible; larger ones would hand the batch
// to the solver.
const std::vector<std::string> kExampleFiles = {
    "rand40.bench", "rand80.blif", "rand120.bench", "rand200.blif",
    "rand300.bench"};
const std::vector<int> kExampleGates = {200, 400};
constexpr std::uint64_t kExampleCircuitSeed = 11;

enum class Flow { kPipeline, kExperiment };

struct Input {
  std::string path;
  bool blif = false;
};

struct Workload {
  Flow flow = Flow::kPipeline;
  std::vector<Input> inputs;
};

Netlist read_input(const Input& in) {
  return in.blif ? read_blif_file(in.path) : read_bench_file(in.path);
}

void write_netlist(const std::string& path, bool blif, const Netlist& nl) {
  if (blif)
    write_blif_file(path, nl);
  else
    write_bench_file(path, nl);
}

/// `nl` with every net renamed n0..n{N-1} under a seeded permutation. Node
/// order, structure and the circuit name are unchanged, so a relabelled
/// circuit retimes exactly like the original.
Netlist relabel(const Netlist& nl, std::uint64_t seed) {
  std::vector<std::size_t> perm(nl.node_count());
  std::iota(perm.begin(), perm.end(), std::size_t{0});
  Rng rng(seed);
  for (std::size_t i = perm.size(); i > 1; --i)
    std::swap(perm[i - 1], perm[rng.below(i)]);
  Netlist out(nl.name());
  for (NodeId id = 0; id < nl.node_count(); ++id) {
    const Node& n = nl.node(id);
    const bool dff = n.type == CellType::kDff;
    std::string name = "n";
    name += std::to_string(perm[id]);
    out.add_node(std::move(name), n.type,
                 dff ? std::vector<NodeId>{kNullNode} : n.fanins);
  }
  for (const NodeId d : nl.dffs()) out.set_dff_input(d, nl.node(d).fanins[0]);
  for (const NodeId o : nl.outputs()) out.mark_output(o);
  out.finalize();
  return out;
}

/// Appends `nl`, relabelled for `seed`, to the workload's inputs.
void add_input(Workload& w, const std::string& dir, const Netlist& nl,
               bool blif, std::uint64_t seed) {
  // One directory per input keeps each file named after its circuit (the
  // BENCH reader takes the circuit name from the file stem).
  const std::string sub = dir + "/" + std::to_string(w.inputs.size());
  fs::create_directories(sub);
  Input in{sub + "/" + nl.name() + (blif ? ".blif" : ".bench"), blif};
  write_netlist(in.path, blif, relabel(nl, seed));
  w.inputs.push_back(std::move(in));
}

/// Writes the workload's inputs for `seed` under `dir` (untimed).
Workload make_workload(const std::string& name, std::uint64_t seed,
                       const std::string& dir,
                       const std::string& examples_dir) {
  auto random_circuit = [](int gates, int dffs, std::uint64_t circuit_seed) {
    RandomCircuitSpec spec;  // the `serelin_cli generate` spec
    spec.name = "rand" + std::to_string(gates);
    spec.gates = gates;
    spec.dffs = dffs;
    spec.inputs = 16;
    spec.outputs = 16;
    spec.seed = circuit_seed;
    return generate_random_circuit(spec);
  };
  Workload w;
  if (name == "rand6k") {
    add_input(w, dir, random_circuit(kRandGates, kRandDffs, kRandCircuitSeed),
              false, seed);
  } else if (name == "table1-small") {
    w.flow = Flow::kExperiment;
    add_input(w, dir, generate_suite_circuit(suite_circuit(kTableRow)), false,
              seed);
  } else if (name == "examples-batch") {
    for (const std::string& file : kExampleFiles) {
      const Input committed{examples_dir + "/" + file, file.ends_with(".blif")};
      if (!fs::exists(committed.path))
        throw Error("examples-batch: missing input " + committed.path);
      add_input(w, dir, read_input(committed), committed.blif, seed);
    }
    for (const int gates : kExampleGates) {
      const Netlist nl = random_circuit(gates, gates / 5, kExampleCircuitSeed);
      add_input(w, dir, nl, false, seed);
      add_input(w, dir, nl, true, seed);
    }
  } else {
    throw Error("unknown workload '" + name +
                "' (rand6k, table1-small, examples-batch)");
  }
  return w;
}

/// `serelin_cli retime --verify --fallback` defaults.
PipelineOptions pipeline_options() {
  PipelineOptions po;
  po.sim.patterns = 2048;
  po.sim.frames = 15;
  po.verify = true;
  return po;
}

/// The Table-I harness configuration for rows up to 25k gates, with the
/// oracle on.
FlowConfig experiment_config() {
  FlowConfig fc;
  fc.sim.patterns = 2048;
  fc.sim.frames = 15;
  fc.sim.warmup = 2 * fc.sim.frames;
  fc.init.feas_passes = 0;
  fc.verify = true;
  fc.reanalyze_ser = true;
  fc.run_minobs = true;
  return fc;
}

// --------------------------------------------------------------------- jobs

/// What one job produced. Everything above `seconds` is the job's identity:
/// it must repeat bit for bit across passes, thread counts and the traced
/// composition.
struct JobResult {
  std::string error;  ///< empty when the job was accepted
  std::string circuit;
  bool blif = false;
  std::size_t vertices = 0;
  std::size_t edges = 0;
  std::int64_t ffs = 0;
  double phi = 0.0;
  double rmin = 0.0;
  std::int64_t iterations = 0;  ///< MinObsWin
  int commits = 0;              ///< MinObsWin
  std::int64_t gain = 0;        ///< accepted Eq.-5 gains, summed
  std::vector<Retiming> retimings;  ///< accepted results, MinObsWin first
  std::vector<double> dser;         ///< experiment: MinObsWin, MinObs
  std::uint64_t fingerprint = 0;    ///< FNV-1a of the written files

  double seconds = 0.0;       ///< whole job (read excluded)
  double flow_seconds = 0.0;  ///< run_pipeline / run_experiment alone
  MetricsSnapshot counters;   ///< untraced: delta across the whole job

  bool same_output(const JobResult& o) const {
    return circuit == o.circuit && vertices == o.vertices &&
           edges == o.edges && ffs == o.ffs && phi == o.phi &&
           rmin == o.rmin && iterations == o.iterations &&
           commits == o.commits && gain == o.gain &&
           retimings == o.retimings && dser == o.dser &&
           fingerprint == o.fingerprint;
  }
};

std::uint64_t fnv1a_file(std::uint64_t h, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot read back " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  for (const char c : buf.str()) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t fingerprint(const std::vector<std::string>& files) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::string& f : files) h = fnv1a_file(h, f);
  return h;
}

std::string output_path(const std::string& base, const char* tag, bool blif) {
  return base + tag + (blif ? ".blif" : ".bench");
}

std::string stage_error(const PipelineResult& res) {
  if (!res.ok) return "no pipeline stage was accepted";
  if (res.stage != PipelineStage::kMinObsWin || res.degraded)
    return std::string("accepted below the requested stage: ") +
           pipeline_stage_name(res.stage);
  if (!res.verdict.ok()) return "oracle: " + res.verdict.summary();
  return "";
}

std::string outcome_error(const char* tag, bool verified,
                          const Verdict& verdict, const SolverResult& r) {
  if (!verified || !verdict.ok())
    return std::string(tag) + " oracle: " + verdict.summary();
  if (r.exited_early || r.partial())
    return std::string(tag) + " stopped early: " + r.stop_detail;
  return "";
}

/// The CLI's `retime --verify --fallback`: the pipeline, then the result
/// materialized and written in the input's format.
JobResult pipeline_job(const Netlist& nl, bool blif, const std::string& out) {
  JobResult j;
  j.circuit = nl.name();
  j.blif = blif;
  const PipelineOptions po = pipeline_options();
  const MetricsSnapshot before = metrics_snapshot();
  const auto t0 = Clock::now();
  const PipelineResult res = run_pipeline(nl, kLib, po);
  j.flow_seconds = seconds_since(t0);
  const RetimingGraph g(nl, kLib);
  const std::string path = output_path(out, "_rt", blif);
  write_netlist(path, blif, apply_retiming(g, res.solver.r, nl.name() + "_rt"));
  j.seconds = seconds_since(t0);
  j.counters = metrics_snapshot() - before;

  j.error = stage_error(res);
  j.vertices = g.gate_vertices().size();
  j.edges = g.edge_count();
  j.ffs = static_cast<std::int64_t>(nl.dff_count());
  j.phi = res.timing.period;
  j.rmin = res.rmin;
  j.iterations = res.solver.iterations;
  j.commits = res.solver.commits;
  j.gain = res.solver.objective_gain;
  j.retimings = {res.solver.r};
  j.fingerprint = fingerprint({path});
  return j;
}

/// One Table-I row: run_experiment, then both retimed netlists written.
JobResult experiment_job(const Netlist& nl, bool blif,
                         const std::string& out) {
  JobResult j;
  j.circuit = nl.name();
  j.blif = blif;
  const FlowConfig fc = experiment_config();
  const MetricsSnapshot before = metrics_snapshot();
  const auto t0 = Clock::now();
  const ExperimentRow row = run_experiment(nl, kLib, fc);
  j.flow_seconds = seconds_since(t0);
  const RetimingGraph g(nl, kLib);
  const std::string win = output_path(out, "_minobswin", blif);
  const std::string ref = output_path(out, "_minobs", blif);
  write_netlist(win, blif,
                apply_retiming(g, row.minobswin.solver.r, nl.name() + "_rt"));
  write_netlist(ref, blif,
                apply_retiming(g, row.minobs.solver.r, nl.name() + "_rt"));
  j.seconds = seconds_since(t0);
  j.counters = metrics_snapshot() - before;

  j.error = outcome_error("minobswin", row.minobswin.verified,
                          row.minobswin.verdict, row.minobswin.solver);
  if (j.error.empty())
    j.error = outcome_error("minobs", row.minobs.verified,
                            row.minobs.verdict, row.minobs.solver);
  j.vertices = row.vertices;
  j.edges = row.edges;
  j.ffs = row.ffs;
  j.phi = row.phi;
  j.rmin = row.rmin;
  j.iterations = row.minobswin.solver.iterations;
  j.commits = row.minobswin.solver.commits;
  j.gain = row.minobswin.solver.objective_gain +
           row.minobs.solver.objective_gain;
  j.retimings = {row.minobswin.solver.r, row.minobs.solver.r};
  j.dser = {row.minobswin.dser, row.minobs.dser};
  j.fingerprint = fingerprint({win, ref});
  return j;
}

// ------------------------------------------------------------ traced split

enum Layer : int {
  kRead, kWrite, kBuild, kApply, kInit, kObs, kGains, kSolver, kOracle, kSer,
  kLayerCount
};

const std::array<const char*, kLayerCount> kLayerNames = {
    "netlist.read_s", "netlist.write_s", "rgraph.build_s", "rgraph.apply_s",
    "core.init_s",    "sim.obs_s",       "core.gains_s",   "core.solver_s",
    "check.oracle_s", "ser.analyze_s"};

/// Per-layer totals of one traced pass.
struct Split {
  std::array<double, kLayerCount> seconds{};
  std::array<MetricsSnapshot, kLayerCount> counters{};
  double in_flow = 0.0;  ///< calls that run inside run_pipeline/run_experiment

  /// Times `call` into `layer` and brackets it with a counter delta.
  void time(Layer layer, bool inside_flow, const std::function<void()>& call) {
    const MetricsSnapshot before = metrics_snapshot();
    const auto t0 = Clock::now();
    call();
    const double dt = seconds_since(t0);
    seconds[layer] += dt;
    if (inside_flow) in_flow += dt;
    const MetricsSnapshot delta = metrics_snapshot() - before;
    for (std::size_t i = 0; i < kCounterCount; ++i)
      counters[layer].values[i] += delta.values[i];
  }
};

/// pipeline_job, composed from the calls run_pipeline makes (minobswin
/// stage, verify on, no deadline) plus the CLI's materialize-and-write.
JobResult traced_pipeline_job(const Input& in, const std::string& out,
                              Split& s) {
  std::optional<Netlist> nl;
  s.time(kRead, false, [&] { nl.emplace(read_input(in)); });
  const auto t0 = Clock::now();
  const PipelineOptions po = pipeline_options();
  JobResult j;
  j.circuit = nl->name();
  j.blif = in.blif;

  std::optional<RetimingGraph> g;
  s.time(kBuild, true, [&] { g.emplace(*nl, kLib); });
  InitResult init;
  s.time(kInit, true, [&] { init = initialize_retiming(*g, po.init); });
  ObsResult obs;
  s.time(kObs, true, [&] { obs = ObservabilityAnalyzer(*nl, po.sim).run(); });
  ObsGains gains;
  s.time(kGains, true, [&] {
    gains = compute_gains(*g, obs.obs, po.sim.patterns, po.area_weight);
  });
  SolverOptions so;
  so.timing = init.timing;
  so.rmin = init.rmin;
  so.enforce_elw = true;
  SolverResult result;
  s.time(kSolver, true,
         [&] { result = MinObsWinSolver(*g, gains, so).solve(init.r); });
  OracleOptions oo;
  oo.timing = so.timing;
  oo.rmin = so.rmin;
  oo.check_elw = so.rmin > 0 && !result.exited_early;
  oo.area_weight = po.area_weight;
  Verdict verdict;
  s.time(kOracle, true, [&] {
    verdict = RetimingOracle(*g, oo).verify(result, init.r, gains);
  });

  std::optional<RetimingGraph> cli_graph;
  s.time(kBuild, false, [&] { cli_graph.emplace(*nl, kLib); });
  std::optional<Netlist> retimed;
  s.time(kApply, false, [&] {
    retimed.emplace(apply_retiming(*cli_graph, result.r, nl->name() + "_rt"));
  });
  const std::string path = output_path(out, "_rt", in.blif);
  s.time(kWrite, false, [&] { write_netlist(path, in.blif, *retimed); });
  j.seconds = seconds_since(t0);

  j.error = outcome_error("minobswin", true, verdict, result);
  j.vertices = g->gate_vertices().size();
  j.edges = g->edge_count();
  j.ffs = static_cast<std::int64_t>(nl->dff_count());
  j.phi = so.timing.period;
  j.rmin = so.rmin;
  j.iterations = result.iterations;
  j.commits = result.commits;
  j.gain = result.objective_gain;
  j.retimings = {result.r};
  j.fingerprint = fingerprint({path});
  return j;
}

/// experiment_job, composed from the calls run_experiment makes (both
/// solvers, verify and SER re-analysis on) plus the materialize-and-write.
JobResult traced_experiment_job(const Input& in, const std::string& out,
                                Split& s) {
  std::optional<Netlist> nl;
  s.time(kRead, false, [&] { nl.emplace(read_input(in)); });
  const auto t0 = Clock::now();
  const FlowConfig fc = experiment_config();
  JobResult j;
  j.circuit = nl->name();
  j.blif = in.blif;

  std::optional<RetimingGraph> g;
  s.time(kBuild, true, [&] { g.emplace(*nl, kLib); });
  InitResult init;
  s.time(kInit, true, [&] { init = initialize_retiming(*g, fc.init); });
  ObsResult obs;
  s.time(kObs, true, [&] { obs = ObservabilityAnalyzer(*nl, fc.sim).run(); });
  ObsGains gains;
  s.time(kGains, true, [&] {
    gains = compute_gains(*g, obs.obs, fc.sim.patterns, fc.area_weight);
  });
  SerOptions ser;
  ser.timing = init.timing;
  ser.sim = fc.sim;
  double ser_original = 0.0;
  s.time(kSer, true,
         [&] { ser_original = analyze_ser(*nl, kLib, ser).total; });

  std::vector<SolverResult> results;
  for (const bool enforce_elw : {true, false}) {
    SolverOptions so;
    so.timing = init.timing;
    so.rmin = init.rmin;
    so.enforce_elw = enforce_elw;
    SolverResult result;
    s.time(kSolver, true,
           [&] { result = MinObsWinSolver(*g, gains, so).solve(init.r); });
    OracleOptions oo;
    oo.timing = so.timing;
    oo.rmin = so.rmin;
    oo.check_elw = enforce_elw && so.rmin > 0 && !result.exited_early;
    oo.area_weight = fc.area_weight;
    Verdict verdict;
    s.time(kOracle, true, [&] {
      verdict = RetimingOracle(*g, oo).verify(result, init.r, gains);
    });
    std::optional<Netlist> retimed;
    s.time(kApply, true, [&] {
      retimed.emplace(apply_retiming(*g, result.r, nl->name() + "_rt"));
    });
    double ser_new = 0.0;
    s.time(kSer, true,
           [&] { ser_new = analyze_ser(*retimed, kLib, ser).total; });
    if (j.error.empty())
      j.error = outcome_error(enforce_elw ? "minobswin" : "minobs", true,
                              verdict, result);
    j.dser.push_back(ser_original > 0 ? (ser_new - ser_original) / ser_original
                                      : 0.0);
    results.push_back(std::move(result));
  }

  std::optional<RetimingGraph> out_graph;
  s.time(kBuild, false, [&] { out_graph.emplace(*nl, kLib); });
  std::vector<std::string> paths = {output_path(out, "_minobswin", in.blif),
                                    output_path(out, "_minobs", in.blif)};
  for (std::size_t i = 0; i < results.size(); ++i) {
    std::optional<Netlist> retimed;
    s.time(kApply, false, [&] {
      retimed.emplace(
          apply_retiming(*out_graph, results[i].r, nl->name() + "_rt"));
    });
    s.time(kWrite, false,
           [&] { write_netlist(paths[i], in.blif, *retimed); });
  }
  j.seconds = seconds_since(t0);

  j.vertices = g->gate_vertices().size();
  j.edges = g->edge_count();
  j.ffs = static_cast<std::int64_t>(nl->dff_count());
  j.phi = init.timing.period;
  j.rmin = init.rmin;
  j.iterations = results[0].iterations;
  j.commits = results[0].commits;
  j.gain = results[0].objective_gain + results[1].objective_gain;
  j.retimings = {results[0].r, results[1].r};
  j.fingerprint = fingerprint(paths);
  return j;
}

// ------------------------------------------------------------------ passes

struct Pass {
  int threads = 1;
  double seconds = 0.0;       ///< sum of job times (reads excluded)
  double flow_seconds = 0.0;  ///< sum of run_pipeline/run_experiment times
  std::vector<JobResult> jobs;
  Split split;  ///< traced passes only
};

std::string job_out(const std::string& dir, std::size_t index) {
  return dir + "/job" + std::to_string(index);
}

Pass untraced_pass(const Workload& w, const std::vector<Netlist>& nls,
                   const std::string& out_dir) {
  Pass p;
  p.threads = execution_threads();
  for (std::size_t i = 0; i < nls.size(); ++i) {
    JobResult j;
    try {
      const std::string out = job_out(out_dir, i);
      j = w.flow == Flow::kPipeline
              ? pipeline_job(nls[i], w.inputs[i].blif, out)
              : experiment_job(nls[i], w.inputs[i].blif, out);
    } catch (const std::exception& e) {
      j.circuit = nls[i].name();
      j.error = std::string("threw: ") + e.what();
    }
    p.seconds += j.seconds;
    p.flow_seconds += j.flow_seconds;
    p.jobs.push_back(std::move(j));
  }
  return p;
}

Pass traced_pass(const Workload& w, const std::string& out_dir) {
  Pass p;
  p.threads = execution_threads();
  for (std::size_t i = 0; i < w.inputs.size(); ++i) {
    JobResult j;
    try {
      const std::string out = job_out(out_dir, i);
      j = w.flow == Flow::kPipeline
              ? traced_pipeline_job(w.inputs[i], out, p.split)
              : traced_experiment_job(w.inputs[i], out, p.split);
    } catch (const std::exception& e) {
      j.error = std::string("threw: ") + e.what();
    }
    p.seconds += j.seconds;
    p.jobs.push_back(std::move(j));
  }
  return p;
}

/// Runs pairs of passes (1 thread, then 4), each pair followed by
/// `after_pair`, until `budget_s` is spent, or exactly `reps` pairs when
/// reps > 0. Always at least one pair.
std::vector<Pass> run_pairs(double budget_s, int reps,
                            const std::function<Pass()>& pass,
                            const std::function<void()>& after_pair) {
  std::vector<Pass> out;
  const auto t0 = Clock::now();
  for (int pairs = 1;; ++pairs) {
    for (const int t : kThreads) {
      set_execution_threads(t);
      out.push_back(pass());
    }
    after_pair();
    if (reps > 0) {
      if (pairs >= reps) break;
      continue;
    }
    const double elapsed = seconds_since(t0);
    if (elapsed + elapsed / pairs > budget_s) break;
  }
  return out;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// One pass at `threads` with host contention filtered out: the sum over
/// jobs of each job's fastest time across the passes. The work is
/// deterministic, so a slower repeat only measures the shared host; at 4
/// threads a single descheduled worker stalls a whole fan-out, and on tiny
/// circuits the pass median moved by 2x with host load while the per-job
/// minima stayed within about 10%.
double fastest_pass(const std::vector<Pass>& passes, int threads) {
  std::vector<double> best;
  for (const Pass& p : passes) {
    if (p.threads != threads) continue;
    best.resize(p.jobs.size(), std::numeric_limits<double>::infinity());
    for (std::size_t i = 0; i < p.jobs.size(); ++i)
      best[i] = std::min(best[i], p.jobs[i].seconds);
  }
  return std::accumulate(best.begin(), best.end(), 0.0);
}

std::vector<double> pass_values(const std::vector<Pass>& passes, int threads,
                                const std::function<double(const Pass&)>& f) {
  std::vector<double> v;
  for (const Pass& p : passes)
    if (p.threads == threads) v.push_back(f(p));
  return v;
}

// ------------------------------------------------------------------ output

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string job_record(const JobResult& j) {
  JsonObject o;
  o.set("circuit", j.circuit)
      .set("format", j.blif ? "blif" : "bench")
      .set("V", static_cast<std::int64_t>(j.vertices))
      .set("E", static_cast<std::int64_t>(j.edges))
      .set("FF", j.ffs)
      .set("phi", j.phi)
      .set("rmin", j.rmin)
      .set("iterations", j.iterations)
      .set("commits", j.commits)
      .set("gain", j.gain)
      .set("fingerprint", hex64(j.fingerprint));
  if (j.dser.size() == 2)
    o.set("dser_minobswin", j.dser[0]).set("dser_minobs", j.dser[1]);
  o.set("ok", j.error.empty());
  if (!j.error.empty()) o.set("error", j.error);
  return o.str();
}

std::string metrics_object(const std::vector<Metric>& metrics) {
  JsonObject o;
  for (const Metric& m : metrics) {
    JsonObject v;
    v.set("value", m.value).set("unit", m.unit);
    o.set_json(m.name, v.str());
  }
  return o.str();
}

/// Strict re-parse of the result object: the four keys, and every metric a
/// finite number with a unit.
bool check_result(const std::string& line, const std::vector<Metric>& want,
                  std::string& why) {
  const ParseOutcome top = parse_object(line);
  if (!top.ok) return why = "result: " + top.error, false;
  const Request& r = top.request;
  if (r.fields.size() != 4 || !r.get_bool("correct") ||
      !r.get_int("attempted") || !r.get_int("failed"))
    return why = "result: wrong top-level keys", false;
  const auto m = r.fields.find("metrics");
  if (m == r.fields.end() || m->second.kind != JsonValue::Kind::kNested)
    return why = "result: metrics is not an object", false;
  const ParseOutcome metrics = parse_object(m->second.str);
  if (!metrics.ok) return why = "metrics: " + metrics.error, false;
  if (metrics.request.fields.size() != want.size())
    return why = "metrics: wrong count", false;
  for (const Metric& w : want) {
    const auto it = metrics.request.fields.find(w.name);
    if (it == metrics.request.fields.end())
      return why = "metrics: missing " + w.name, false;
    const ParseOutcome one = parse_object(it->second.str);
    if (!one.ok || !one.request.get_number("value") ||
        one.request.get_string("unit") != w.unit)
      return why = "metrics: malformed " + w.name, false;
  }
  return true;
}

// -------------------------------------------------------------------- main

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  int reps = 0;
  std::string work = ".bench_build/perfbench-work";
  std::string examples = "examples/circuits";
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "rand6k|table1-small|examples-batch --seed N --seconds S "
               "--trace 0|1 [--reps N] [--work DIR] [--examples DIR]\n",
               why.c_str());
  std::exit(2);
}

long long parse_number(const std::string& flag, const std::string& v,
                       long long lo, long long hi) {
  char* end = nullptr;
  const long long n = std::strtoll(v.c_str(), &end, 10);
  if (v.empty() || *end != '\0' || n < lo || n > hi)
    usage(flag + " wants an integer in [" + std::to_string(lo) + ", " +
          std::to_string(hi) + "], got '" + v + "'");
  return n;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " needs a value");
    const std::string v = argv[++i];
    if (flag == "--workload")
      a.workload = v;
    else if (flag == "--seed")
      a.seed = static_cast<std::uint64_t>(
          parse_number(flag, v, 0, (1LL << 62)));
    else if (flag == "--seconds")
      a.seconds = static_cast<double>(parse_number(flag, v, 1, 3600));
    else if (flag == "--trace")
      a.trace = static_cast<int>(parse_number(flag, v, 0, 1));
    else if (flag == "--reps")
      a.reps = static_cast<int>(parse_number(flag, v, 1, 1000));
    else if (flag == "--work")
      a.work = v;
    else if (flag == "--examples")
      a.examples = v;
    else
      usage("unknown flag " + flag);
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

int run(const Args& args) {
  // Build guard: the split needs the counters, and timing an unoptimised
  // build measures the compiler, not the code.
#if defined(__OPTIMIZE__)
  constexpr bool kOptimized = true;
#else
  constexpr bool kOptimized = false;
#endif
  if (!metrics_compiled_in()) {
    std::fprintf(stderr, "perfbench: refusing to run: counters are compiled "
                         "out (SERELIN_TRACE_ENABLED=0)\n");
    return 3;
  }
  if (!kOptimized) {
    std::fprintf(stderr,
                 "perfbench: refusing to run: unoptimised build (%s); "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE);
    return 3;
  }

  const std::string base = args.work + "/" + args.workload;
  const std::string in_dir = base + "/in";
  const std::string out_dir = base + "/out";
  fs::remove_all(in_dir);
  fs::remove_all(out_dir);
  fs::create_directories(in_dir);
  fs::create_directories(out_dir);
  const Workload w =
      make_workload(args.workload, args.seed, in_dir, args.examples);

  // setup_s: every input file read into a finalized netlist, the sum of
  // each file's fastest read (as fastest_pass does for jobs). Host noise
  // comes in stretches of seconds, so the reads are spread over the run:
  // five before the first job, then three after each pair of passes.
  std::vector<double> fastest_read(w.inputs.size(),
                                   std::numeric_limits<double>::infinity());
  auto read_all = [&] {
    std::vector<Netlist> out;
    for (std::size_t i = 0; i < w.inputs.size(); ++i) {
      const auto t0 = Clock::now();
      out.push_back(read_input(w.inputs[i]));
      fastest_read[i] = std::min(fastest_read[i], seconds_since(t0));
    }
    return out;
  };
  std::vector<Netlist> nls;
  for (int i = 0; i < 5; ++i) nls = read_all();

  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  const std::vector<Pass> passes = run_pairs(
      budget, args.reps, [&] { return untraced_pass(w, nls, out_dir); },
      [&] {
        for (int i = 0; i < 3; ++i) read_all();
      });
  std::vector<Pass> traced;
  if (args.trace)
    traced = run_pairs(
        budget, args.reps, [&] { return traced_pass(w, out_dir); }, [] {});

  // Correctness gates.
  std::vector<std::string> violations;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  const Pass& ref = passes.front();
  auto gate = [&](const Pass& p, bool check_counters) {
    for (std::size_t i = 0; i < p.jobs.size(); ++i) {
      const JobResult& j = p.jobs[i];
      const std::string where = w.inputs[i].path + " @ " +
                                std::to_string(p.threads) + " thread(s)";
      ++attempted;
      if (!j.error.empty()) {
        ++failed;
        violations.push_back(where + ": " + j.error);
        continue;
      }
      if (!j.same_output(ref.jobs[i]))
        violations.push_back(where + ": output differs from the first "
                                     "untraced pass");
      if (check_counters && !(j.counters == ref.jobs[i].counters))
        violations.push_back(where + ": counter deltas differ from the "
                                     "first untraced pass");
    }
  };
  for (const Pass& p : passes) gate(p, true);
  for (const Pass& p : traced) {
    gate(p, false);
    for (int l = 0; l < kLayerCount; ++l)
      if (!(p.split.counters[l] == traced.front().split.counters[l]))
        violations.push_back(std::string("traced ") + kLayerNames[l] +
                             " counter deltas differ across passes");
  }

  // Per-job records, from the reference pass.
  std::string jobs_json = "[";
  for (std::size_t i = 0; i < ref.jobs.size(); ++i) {
    const std::string rec = job_record(ref.jobs[i]);
    if (const ParseOutcome parsed = parse_object(rec); !parsed.ok)
      violations.push_back("job record does not parse: " + parsed.error);
    std::printf("job %s\n", rec.c_str());
    jobs_json += (i ? "," : "") + rec;
  }
  jobs_json += "]";

  auto med = [](const std::vector<Pass>& ps, int t,
                const std::function<double(const Pass&)>& f) {
    return median(pass_values(ps, t, f));
  };
  const auto wall = [](const Pass& p) { return p.seconds; };
  std::vector<Metric> metrics;
  std::int64_t gain = 0;
  for (const JobResult& j : ref.jobs) gain += j.gain;
  struct rusage usage_now {};
  getrusage(RUSAGE_SELF, &usage_now);
  const double peak_rss_mb = static_cast<double>(usage_now.ru_maxrss) / 1024.0;

  if (!args.trace) {
    metrics = {{"wall_s.t1", fastest_pass(passes, 1), "s"},
               {"wall_s.t4", fastest_pass(passes, 4), "s"},
               {"setup_s",
                std::accumulate(fastest_read.begin(), fastest_read.end(), 0.0),
                "s"},
               {"peak_rss_mb", peak_rss_mb, "MB"},
               {"objective_gain", static_cast<double>(gain), "count"}};
    // Figures printed beside the bounded metrics: failures are also the
    // result's "failed" field, and ΔSER exists on table1-small only.
    std::vector<double> dser_win, dser_ref;
    for (const JobResult& j : ref.jobs)
      if (j.dser.size() == 2) {
        dser_win.push_back(j.dser[0]);
        dser_ref.push_back(j.dser[1]);
      }
    auto mean = [](const std::vector<double>& v) {
      double s = 0;
      for (const double x : v) s += x;
      return v.empty() ? 0.0 : s / static_cast<double>(v.size());
    };
    std::printf("info jobs_failed_frac %.6g share\n",
                attempted ? static_cast<double>(failed) /
                                static_cast<double>(attempted)
                          : 0.0);
    if (!dser_win.empty())
      std::printf("info dser.minobswin %.6g share\ninfo dser.minobs %.6g "
                  "share\n",
                  mean(dser_win), mean(dser_ref));
  } else {
    const Split& counts = traced.front().split;
    auto count = [&](Layer l, Counter c) {
      return static_cast<double>(counts.counters[l][c]);
    };
    const double words = count(kObs, Counter::kSimPatternWords);
    std::array<double, 2> obs_s{};
    for (std::size_t ti = 0; ti < kThreads.size(); ++ti) {
      const int t = kThreads[ti];
      const std::string sfx = ".t" + std::to_string(t);
      for (int l = 0; l < kLayerCount; ++l) {
        const auto layer = [l](const Pass& p) { return p.split.seconds[l]; };
        metrics.push_back({kLayerNames[l] + sfx, med(traced, t, layer), "s"});
      }
      obs_s[ti] = med(traced, t,
                      [](const Pass& p) { return p.split.seconds[kObs]; });
      metrics.push_back({"sim.ns_per_pattern_word" + sfx,
                         words > 0 ? 1e9 * obs_s[ti] / words : 0.0, "ns"});
      metrics.push_back(
          {"flow.unattributed_s" + sfx,
           med(passes, t, [](const Pass& p) { return p.flow_seconds; }) -
               med(traced, t, [](const Pass& p) { return p.split.in_flow; }),
           "s"});
      metrics.push_back({"trace.overhead_s" + sfx,
                         med(traced, t, wall) - med(passes, t, wall), "s"});
    }
    const double iterations = count(kSolver, Counter::kSolverIterations);
    const double commits = count(kSolver, Counter::kSolverCommits);
    metrics.push_back(
        {"sim.obs_speedup", obs_s[1] > 0 ? obs_s[0] / obs_s[1] : 0.0, "x"});
    metrics.push_back({"sim.pattern_words", words, "count"});
    metrics.push_back(
        {"core.init.feas_passes", count(kInit, Counter::kFeasPasses), "count"});
    metrics.push_back({"core.init.timing_passes",
                       count(kInit, Counter::kTimingPasses), "count"});
    metrics.push_back({"core.solver.iterations", iterations, "count"});
    metrics.push_back({"core.solver.commits", commits, "count"});
    metrics.push_back({"core.solver.commit_ratio",
                       iterations > 0 ? commits / iterations : 0.0, "ratio"});
    metrics.push_back({"core.solver.forest_constraints",
                       count(kSolver, Counter::kForestConstraints), "count"});
    metrics.push_back({"core.solver.forest_cuts",
                       count(kSolver, Counter::kForestCuts), "count"});
    metrics.push_back({"core.solver.incr_nodes_touched",
                       count(kSolver, Counter::kIncrNodesTouched), "count"});
    metrics.push_back({"check.oracle_checks",
                       count(kOracle, Counter::kOracleChecks), "count"});
    // ELW interval-set work happens in the oracle's R_min invariant and in
    // the SER windows; MinObsWin itself never touches interval sets.
    metrics.push_back({"check.elw_interval_ops",
                       count(kOracle, Counter::kElwIntervalOps), "count"});
    metrics.push_back({"ser.terms", count(kSer, Counter::kSerTerms), "count"});
    metrics.push_back({"ser.elw_interval_ops",
                       count(kSer, Counter::kElwIntervalOps), "count"});
  }

  const std::size_t n1 = pass_values(passes, 1, wall).size();
  const std::size_t n4 = pass_values(passes, 4, wall).size();
  std::printf("info workload %s seed %llu build %s hardware_threads %d "
              "threads 1,4 passes %zu+%zu%s\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              PERFBENCH_BUILD_TYPE, hardware_threads(), n1, n4,
              args.trace ? " (untraced) + traced" : "");
  // Beside the fastest-pass figure: the pass median and the highest
  // percentile with at least ten passes beyond it, which show how much the
  // host held the run back.
  for (const int t : kThreads) {
    std::vector<double> v = pass_values(passes, t, wall);
    std::sort(v.begin(), v.end());
    std::printf("info pass_s.t%d median %.6f", t, median(v));
    if (v.size() >= 20)
      std::printf(" p%.0f %.6f",
                  100.0 * static_cast<double>(v.size() - 10) /
                      static_cast<double>(v.size()),
                  v[v.size() - 11]);
    std::printf(" passes %zu\n", v.size());
  }
  for (const Pass& p : passes)
    std::printf("info pass untraced threads %d seconds %.6f\n", p.threads,
                p.seconds);
  for (const Pass& p : traced)
    std::printf("info pass traced threads %d seconds %.6f\n", p.threads,
                p.seconds);
  for (const Metric& m : metrics)
    std::printf("metric %-34s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  for (const std::string& v : violations)
    std::fprintf(stderr, "perfbench: VIOLATION %s\n", v.c_str());

  const bool correct = violations.empty();
  JsonObject result;
  result.set("correct", correct)
      .set("attempted", attempted)
      .set("failed", failed)
      .set_json("metrics", metrics_object(metrics));
  const std::string line = result.str();

  JsonObject report;
  report.set("workload", args.workload)
      .set("seed", static_cast<std::int64_t>(args.seed))
      .set("trace", args.trace)
      .set("build_type", PERFBENCH_BUILD_TYPE)
      .set("hardware_threads", hardware_threads())
      .set_json("threads", "[1,4]")
      .set_json("jobs", jobs_json)
      .set_json("result", line);
  const std::string report_path = base + "/report-seed" +
                                  std::to_string(args.seed) + "-trace" +
                                  std::to_string(args.trace) + ".json";
  atomic_write_file(report_path, report.str() + "\n");

  // Valid artifact: read the stored report back and parse it strictly.
  std::ifstream back(report_path);
  std::string stored;
  std::getline(back, stored);
  const ParseOutcome parsed = parse_object(stored);
  std::string why;
  const auto stored_result = parsed.request.fields.find("result");
  if (!parsed.ok || stored_result == parsed.request.fields.end() ||
      !check_result(stored_result->second.str, metrics, why)) {
    std::fprintf(stderr, "perfbench: invalid artifact %s: %s\n",
                 report_path.c_str(), parsed.ok ? why.c_str()
                                                : parsed.error.c_str());
    return 1;
  }
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
