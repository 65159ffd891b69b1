// Differential harness, shrinker, and committed-corpus regression tests.
//
// Three suites:
//  * StopDetail — every deadline-aware solver must return a Partial result
//    whose stop_detail says *why* it stopped, for both StopReasons. The
//    differential harness relies on this to tell timeouts from wrong
//    answers ("partial-without-detail" is itself a divergence class).
//  * Shrink — the delta-debugging shrinker preserves the predicate, is
//    1-minimal at fixpoint, respects its check budget, and rejects a
//    non-failing start.
//  * CorpusReplay / Differential — every counterexample committed under
//    tests/corpus/found/ still behaves as its sidecar promises, and
//    planted faults are detected (the fuzzer's self-check invariant).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check/differential.hpp"
#include "check/shrink.hpp"
#include "check/wd_matrices.hpp"
#include "core/closure_solver.hpp"
#include "core/initializer.hpp"
#include "core/min_period.hpp"
#include "core/solver.hpp"
#include "gen/random_circuit.hpp"
#include "helpers.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/builder.hpp"
#include "netlist/validate.hpp"
#include "support/rng.hpp"

#ifndef SERELIN_CORPUS_DIR
#define SERELIN_CORPUS_DIR "tests/corpus"
#endif

namespace serelin {
namespace {

// ---------------------------------------------------------------------------
// StopDetail: Partial results always explain themselves.

/// A circuit big enough that every solver has real work to interrupt.
Netlist stop_circuit() {
  RandomCircuitSpec spec;
  spec.name = "stopdetail";
  spec.gates = 60;
  spec.dffs = 24;
  spec.seed = 42;
  return generate_random_circuit(spec);
}

struct StopFixture {
  StopFixture()
      : nl(stop_circuit()),
        g(nl, lib),
        init(initialize_retiming(g, InitOptions{})),
        gains(test::gains_for(g, nl)) {}

  SolverOptions solver_options(Deadline deadline) const {
    SolverOptions o;
    o.timing = init.timing;
    o.rmin = init.rmin;
    o.deadline = deadline;
    return o;
  }

  CellLibrary lib;
  Netlist nl;
  RetimingGraph g;
  InitResult init;
  ObsGains gains;
};

Deadline cancelled_deadline() {
  CancelToken token;
  token.cancel();
  return Deadline::with_token(token);
}

void expect_partial(StopReason expected, StopReason got,
                    const std::string& detail, const char* engine) {
  EXPECT_EQ(got, expected) << engine;
  EXPECT_FALSE(detail.empty())
      << engine << " returned a Partial result with no stop_detail";
  EXPECT_NE(detail.find(stop_reason_name(expected)), std::string::npos)
      << engine << " detail does not name the reason: " << detail;
}

TEST(StopDetail, MinObsWinDeadline) {
  StopFixture fx;
  MinObsWinSolver solver(fx.g, fx.gains,
                         fx.solver_options(Deadline::after(0.0)));
  const SolverResult res = solver.solve(fx.init.r);
  ASSERT_TRUE(res.partial());
  expect_partial(StopReason::kDeadline, res.stop_reason, res.stop_detail,
                 "forest");
  EXPECT_TRUE(fx.g.valid(res.r));  // best-so-far is still legal
}

TEST(StopDetail, MinObsWinCancelled) {
  StopFixture fx;
  MinObsWinSolver solver(fx.g, fx.gains,
                         fx.solver_options(cancelled_deadline()));
  const SolverResult res = solver.solve(fx.init.r);
  ASSERT_TRUE(res.partial());
  expect_partial(StopReason::kCancelled, res.stop_reason, res.stop_detail,
                 "forest");
}

TEST(StopDetail, ClosureDeadline) {
  StopFixture fx;
  ClosureSolver solver(fx.g, fx.gains,
                       fx.solver_options(Deadline::after(0.0)));
  const SolverResult res = solver.solve(fx.init.r);
  ASSERT_TRUE(res.partial());
  expect_partial(StopReason::kDeadline, res.stop_reason, res.stop_detail,
                 "closure");
  EXPECT_TRUE(fx.g.valid(res.r));
}

TEST(StopDetail, ClosureCancelled) {
  StopFixture fx;
  ClosureSolver solver(fx.g, fx.gains,
                       fx.solver_options(cancelled_deadline()));
  const SolverResult res = solver.solve(fx.init.r);
  ASSERT_TRUE(res.partial());
  expect_partial(StopReason::kCancelled, res.stop_reason, res.stop_detail,
                 "closure");
}

TEST(StopDetail, MinPeriodDeadline) {
  StopFixture fx;
  MinPeriodRetimer::Options o;
  o.deadline = Deadline::after(0.0);
  const auto res = MinPeriodRetimer(fx.g, o).minimize();
  ASSERT_TRUE(res.partial());
  expect_partial(StopReason::kDeadline, res.stop_reason, res.stop_detail,
                 "feas");
}

TEST(StopDetail, MinPeriodCancelled) {
  StopFixture fx;
  MinPeriodRetimer::Options o;
  o.deadline = cancelled_deadline();
  const auto res = MinPeriodRetimer(fx.g, o).minimize();
  ASSERT_TRUE(res.partial());
  expect_partial(StopReason::kCancelled, res.stop_reason, res.stop_detail,
                 "feas");
}

TEST(StopDetail, WdMinPeriodDeadline) {
  StopFixture fx;
  const WdMatrices wd(fx.g);
  const auto res =
      wd_min_period(fx.g, wd, /*setup=*/0.0, Deadline::after(0.0));
  ASSERT_TRUE(res.partial());
  expect_partial(StopReason::kDeadline, res.stop_reason, res.stop_detail,
                 "wd-min-period");
}

TEST(StopDetail, WdMinPeriodCancelled) {
  StopFixture fx;
  const WdMatrices wd(fx.g);
  const auto res =
      wd_min_period(fx.g, wd, /*setup=*/0.0, cancelled_deadline());
  ASSERT_TRUE(res.partial());
  expect_partial(StopReason::kCancelled, res.stop_reason, res.stop_detail,
                 "wd-min-period");
}

TEST(StopDetail, ConvergedRunsCarryNoDetail) {
  StopFixture fx;
  MinObsWinSolver solver(fx.g, fx.gains, fx.solver_options(Deadline()));
  const SolverResult res = solver.solve(fx.init.r);
  EXPECT_FALSE(res.partial());
  EXPECT_EQ(res.stop_reason, StopReason::kNone);
  EXPECT_TRUE(res.stop_detail.empty());
}

// ---------------------------------------------------------------------------
// Shrink: delta-debugging properties.

Netlist shrink_start() {
  RandomCircuitSpec spec;
  spec.name = "shrinkme";
  spec.gates = 30;
  spec.dffs = 10;
  spec.xor_share = 0.4;
  spec.seed = 7;
  return generate_random_circuit(spec);
}

/// Structural predicate cheap enough to shrink against exhaustively.
bool has_xor(const Netlist& nl) {
  for (NodeId id = 0; id < nl.node_count(); ++id) {
    const CellType type = nl.node(id).type;
    if (type == CellType::kXor || type == CellType::kXnor) return true;
  }
  return false;
}

TEST(Shrink, PreservesPredicateAtFixpoint) {
  const Netlist start = shrink_start();
  ASSERT_TRUE(has_xor(start));
  const ShrinkResult res = shrink_netlist(start, has_xor);
  EXPECT_TRUE(has_xor(res.netlist));
  EXPECT_TRUE(res.one_minimal);
  EXPECT_GT(res.removed, 0);
  EXPECT_LT(res.netlist.node_count(), start.node_count());
  // The kept netlist is finalized and structurally legal: solvers can run
  // on it without defensive checks (here: it rebuilds through bench I/O).
  std::stringstream io;
  write_bench(io, res.netlist);
  EXPECT_TRUE(structurally_equal(res.netlist, read_bench(io)));
}

TEST(Shrink, BudgetStopsEarlyWithoutMinimality) {
  const Netlist start = shrink_start();
  ShrinkOptions o;
  o.max_checks = 1;
  const ShrinkResult res = shrink_netlist(start, has_xor, o);
  EXPECT_TRUE(has_xor(res.netlist));
  EXPECT_FALSE(res.one_minimal);
  EXPECT_LE(res.checks, 1);
}

TEST(Shrink, RejectsNonFailingStart) {
  const Netlist start = test::tiny_pipeline();  // no XOR anywhere
  ASSERT_FALSE(has_xor(start));
  EXPECT_THROW(shrink_netlist(start, has_xor), PreconditionError);
}

// ---------------------------------------------------------------------------
// Corpus replay: committed counterexamples stay true to their sidecars.

struct CorpusEntry {
  std::string bench_path;
  bool expect_divergent = false;
};

/// The committed entries are exactly the `!name.bench` whitelist lines of
/// tests/corpus/found/.gitignore — scratch findings from local fuzz runs
/// share the directory but are ignored, so the test enumerates the
/// whitelist instead of globbing.
std::vector<CorpusEntry> committed_corpus_entries() {
  const std::string dir = std::string(SERELIN_CORPUS_DIR) + "/found";
  std::ifstream ignore(dir + "/.gitignore");
  EXPECT_TRUE(ignore.is_open()) << dir << "/.gitignore";
  std::vector<CorpusEntry> out;
  std::string line;
  while (std::getline(ignore, line)) {
    if (line.size() < 2 || line[0] != '!') continue;
    const std::string name = line.substr(1);
    if (name.size() < 6 || name.rfind(".bench") != name.size() - 6) continue;
    CorpusEntry entry;
    entry.bench_path = dir + "/" + name;
    std::ifstream sidecar(entry.bench_path + ".repro");
    EXPECT_TRUE(sidecar.is_open()) << entry.bench_path << ".repro";
    std::string sline;
    while (std::getline(sidecar, sline)) {
      if (sline.rfind("expect: ", 0) == 0)
        entry.expect_divergent = sline.substr(8) == "divergent";
    }
    out.push_back(std::move(entry));
  }
  return out;
}

TEST(CorpusReplay, EveryCommittedEntryMatchesExpectation) {
  const std::vector<CorpusEntry> entries = committed_corpus_entries();
  ASSERT_FALSE(entries.empty());
  for (const CorpusEntry& entry : entries) {
    const Netlist nl = read_bench_file(entry.bench_path);
    DiffConfig cfg;
    cfg.engine_seconds = 30.0;
    const DifferentialReport report = run_differential(nl, cfg);
    EXPECT_TRUE(report.ran) << entry.bench_path;
    EXPECT_EQ(report.divergent(), entry.expect_divergent)
        << entry.bench_path << ": " << report.summary();
  }
}

TEST(CorpusReplay, CommittedDivergencesAreOneMinimal) {
  // Shrinking an already-minimal counterexample must remove nothing: the
  // fuzzer promises 1-minimality before persisting, and committed entries
  // must not rot as the solvers evolve.
  for (const CorpusEntry& entry : committed_corpus_entries()) {
    if (!entry.expect_divergent) continue;
    const Netlist nl = read_bench_file(entry.bench_path);
    DiffConfig cfg;
    cfg.engine_seconds = 30.0;
    const DifferentialReport full = run_differential(nl, cfg);
    ASSERT_TRUE(full.divergent()) << entry.bench_path;
    // Mirror the fuzzer's shrink predicate: the candidate must show the
    // SAME divergence kind. Plain divergent() would let the shrinker
    // wander into setup-crash degenerates (a different bug entirely).
    const std::string kind = full.divergences.front().kind;
    const auto diverges = [&cfg, &kind](const Netlist& candidate) {
      const DifferentialReport r = run_differential(candidate, cfg);
      for (const Divergence& d : r.divergences)
        if (d.kind == kind) return true;
      return false;
    };
    const ShrinkResult res = shrink_netlist(nl, diverges);
    EXPECT_TRUE(res.one_minimal) << entry.bench_path;
    EXPECT_EQ(res.removed, 0) << entry.bench_path
                              << " shrank further: re-run the fuzzer's "
                                 "shrinker and refresh the entry";
  }
}

// ---------------------------------------------------------------------------
// Differential harness: clean circuits are clean, planted faults are not.

TEST(Differential, CleanOnTinyKnownCircuits) {
  for (const Netlist& nl : {test::tiny_pipeline(), test::tiny_ring(),
                            test::tiny_reconvergent()}) {
    const DifferentialReport report = run_differential(nl, DiffConfig{});
    EXPECT_TRUE(report.ran) << nl.name();
    EXPECT_FALSE(report.divergent()) << nl.name() << ": " << report.summary();
  }
}

Netlist fault_circuit() {
  RandomCircuitSpec spec;
  spec.name = "fault";
  spec.gates = 12;
  spec.dffs = 10;
  spec.pipeline_prob = 0.8;
  spec.seed = 11;
  return generate_random_circuit(spec);
}

TEST(Differential, PlantedObjectiveSkewIsCaught) {
  DiffConfig cfg;
  cfg.fault = {FaultKind::kObjectiveSkew, /*engine=*/0};
  const DifferentialReport report = run_differential(fault_circuit(), cfg);
  ASSERT_TRUE(report.divergent()) << report.summary();
}

TEST(Differential, PlantedStopDetailDropIsCaught) {
  DiffConfig cfg;
  cfg.fault = {FaultKind::kStopDetailDrop, /*engine=*/0};
  const DifferentialReport report = run_differential(fault_circuit(), cfg);
  ASSERT_TRUE(report.divergent()) << report.summary();
  bool saw_contract_violation = false;
  for (const Divergence& d : report.divergences)
    saw_contract_violation |= d.kind == "partial-without-detail";
  EXPECT_TRUE(saw_contract_violation) << report.summary();
}

TEST(Differential, TimeoutIsNotADivergence) {
  DiffConfig cfg;
  cfg.engine_seconds = 1e-9;  // every engine expires at its first poll
  const DifferentialReport report = run_differential(fault_circuit(), cfg);
  EXPECT_FALSE(report.divergent()) << report.summary();
  bool saw_timeout = false;
  for (const EngineOutcome& e : report.engines)
    saw_timeout |= e.status == EngineStatus::kTimeout;
  EXPECT_TRUE(saw_timeout) << report.summary();
}

}  // namespace
}  // namespace serelin
