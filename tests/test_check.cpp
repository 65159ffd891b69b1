// Tests of the independent result-verification oracle (src/check): every
// solver's output must verify on every bundled example circuit, and each
// class of injected corruption must be rejected with the right
// per-invariant diagnosis.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "check/oracle.hpp"
#include "core/initializer.hpp"
#include "gen/random_circuit.hpp"
#include "core/min_area.hpp"
#include "core/min_period.hpp"
#include "helpers.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/blif_io.hpp"
#include "rgraph/apply.hpp"
#include "ser/ser_analyzer.hpp"
#include "support/check.hpp"
#include "support/parallel.hpp"

namespace serelin {
namespace {

namespace fs = std::filesystem;

std::vector<fs::path> example_circuits() {
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(SERELIN_EXAMPLES_DIR)) {
    const std::string ext = entry.path().extension().string();
    if (ext == ".bench" || ext == ".blif") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

Netlist load(const fs::path& path) {
  return path.extension() == ".blif" ? read_blif_file(path.string())
                                     : read_bench_file(path.string());
}

SimConfig fast_sim() {
  SimConfig sim;
  sim.patterns = 128;
  sim.frames = 4;
  sim.warmup = 8;
  return sim;
}

/// Oracle options matching the context a MinObsWin/MinObs run claims.
OracleOptions oracle_for(const SolverOptions& so, const SolverResult& res) {
  OracleOptions oo;
  oo.timing = so.timing;
  oo.rmin = so.rmin;
  oo.check_elw = so.enforce_elw && so.rmin > 0 && !res.exited_early;
  return oo;
}

TEST(OracleExamples, AcceptsEverySolverOnEveryCircuit) {
  const std::vector<fs::path> files = example_circuits();
  ASSERT_FALSE(files.empty()) << "no circuits under " << SERELIN_EXAMPLES_DIR;
  for (const fs::path& path : files) {
    SCOPED_TRACE(path.filename().string());
    const Netlist nl = load(path);
    CellLibrary lib;
    RetimingGraph g(nl, lib);
    const InitResult init = initialize_retiming(g, {});
    const ObsGains gains = test::gains_for(g, nl, fast_sim());

    SolverOptions so;
    so.timing = init.timing;
    so.rmin = init.rmin;

    // Algorithm 1 with ELW constraints.
    so.enforce_elw = true;
    {
      MinObsWinSolver solver(g, gains, so);
      const SolverResult res = solver.solve(init.r);
      const Verdict v =
          RetimingOracle(g, oracle_for(so, res)).verify(res, init.r, gains);
      EXPECT_TRUE(v.ok()) << "minobswin: " << v.summary();
    }

    // Efficient MinObs baseline (no ELW claim).
    so.enforce_elw = false;
    {
      MinObsWinSolver solver(g, gains, so);
      const SolverResult res = solver.solve(init.r);
      const Verdict v =
          RetimingOracle(g, oracle_for(so, res)).verify(res, init.r, gains);
      EXPECT_TRUE(v.ok()) << "minobs: " << v.summary();
    }

    // Min-period retiming at the initialization period.
    {
      MinPeriodRetimer::Options mo;
      mo.setup = init.timing.setup;
      MinPeriodRetimer retimer(g, mo);
      const auto r = retimer.retime_for_period(init.timing.period, init.r);
      ASSERT_TRUE(r.has_value());
      OracleOptions oo;
      oo.timing = init.timing;
      oo.check_elw = false;
      const Verdict v = RetimingOracle(g, oo).verify(*r);
      EXPECT_TRUE(v.ok()) << "minperiod: " << v.summary();
    }

    // Min-area retiming (uniform gains, no objective/ELW claim).
    {
      const MinAreaResult area = min_area_retime(g, init.timing, init.r);
      OracleOptions oo;
      oo.timing = init.timing;
      oo.check_elw = false;
      const Verdict v = RetimingOracle(g, oo).verify(area.solver.r);
      EXPECT_TRUE(v.ok()) << "minarea: " << v.summary();
    }
  }
}

TEST(Oracle, AcceptsTinyFixturesAndSkipsUnclaimedObjective) {
  for (const Netlist& nl : {test::tiny_pipeline(), test::tiny_ring(),
                            test::tiny_reconvergent()}) {
    SCOPED_TRACE(nl.name());
    CellLibrary lib;
    RetimingGraph g(nl, lib);
    const InitResult init = initialize_retiming(g, {});
    OracleOptions oo;
    oo.timing = init.timing;
    oo.rmin = init.rmin;
    const Verdict v = RetimingOracle(g, oo).verify(init.r);
    EXPECT_TRUE(v.ok()) << v.summary();
    EXPECT_EQ(v.result(Invariant::kObjective).status, CheckStatus::kSkipped);
    EXPECT_NE(v.summary().find("verified"), std::string::npos);
  }
}

TEST(Oracle, RejectsCorruptedGateLabel) {
  const Netlist nl = test::tiny_pipeline();
  CellLibrary lib;
  RetimingGraph g(nl, lib);
  const InitResult init = initialize_retiming(g, {});

  // Bumping one gate label makes some edge weight w + r(v) − r(u) go
  // negative (the gate "borrows" a register that does not exist).
  Retiming bad = g.zero_retiming();
  bad[g.vertex_of(nl.find("a"))] += 1;

  OracleOptions oo;
  oo.timing = init.timing;
  const Verdict v = RetimingOracle(g, oo).verify(bad);
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.result(Invariant::kLegality).status, CheckStatus::kFail);
  EXPECT_TRUE(v.diagnostics.has(DiagCode::kOracleLegality))
      << v.diagnostics.summary();
  // Downstream invariants cannot be materialized from an illegal labeling.
  EXPECT_EQ(v.result(Invariant::kPeriod).status, CheckStatus::kSkipped);
  EXPECT_EQ(v.result(Invariant::kElw).status, CheckStatus::kSkipped);
  EXPECT_NE(v.summary().find("REJECTED"), std::string::npos);
}

TEST(Oracle, RejectsMovedBoundaryLabel) {
  const Netlist nl = test::tiny_pipeline();
  CellLibrary lib;
  RetimingGraph g(nl, lib);
  const InitResult init = initialize_retiming(g, {});

  Retiming bad = g.zero_retiming();
  bad[g.vertex_of(nl.find("x"))] = 1;  // boundary labels are pinned to 0

  OracleOptions oo;
  oo.timing = init.timing;
  const Verdict v = RetimingOracle(g, oo).verify(bad);
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.result(Invariant::kLegality).status, CheckStatus::kFail);
  EXPECT_TRUE(v.diagnostics.has(DiagCode::kOracleLegality));
}

TEST(Oracle, RejectsPeriodViolation) {
  const Netlist nl = test::tiny_pipeline();
  CellLibrary lib;
  RetimingGraph g(nl, lib);

  OracleOptions oo;
  oo.timing.period = critical_path(nl, lib) / 2.0;  // cannot possibly fit
  oo.timing.setup = 0.0;
  const Verdict v = RetimingOracle(g, oo).verify(g.zero_retiming());
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.result(Invariant::kLegality).status, CheckStatus::kPass);
  EXPECT_EQ(v.result(Invariant::kPeriod).status, CheckStatus::kFail);
  EXPECT_TRUE(v.diagnostics.has(DiagCode::kOraclePeriod))
      << v.diagnostics.summary();
}

TEST(Oracle, RejectsElwViolation) {
  const Netlist nl = test::tiny_ring();
  CellLibrary lib;
  RetimingGraph g(nl, lib);

  OracleOptions oo;
  oo.timing.period = critical_path(nl, lib) + 10.0;  // period is generous
  oo.timing.hold = 2.0;
  oo.rmin = 1000.0;  // no short path can clear this bound
  const Verdict v = RetimingOracle(g, oo).verify(g.zero_retiming());
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.result(Invariant::kLegality).status, CheckStatus::kPass);
  EXPECT_EQ(v.result(Invariant::kPeriod).status, CheckStatus::kPass);
  EXPECT_EQ(v.result(Invariant::kElw).status, CheckStatus::kFail);
  EXPECT_TRUE(v.diagnostics.has(DiagCode::kOracleElw))
      << v.diagnostics.summary();
}

TEST(Oracle, RejectsForgedObjectiveGain) {
  const Netlist nl = test::tiny_reconvergent();
  CellLibrary lib;
  RetimingGraph g(nl, lib);
  const InitResult init = initialize_retiming(g, {});
  const ObsGains gains = test::gains_for(g, nl, fast_sim());

  SolverOptions so;
  so.timing = init.timing;
  so.rmin = init.rmin;
  MinObsWinSolver solver(g, gains, so);
  SolverResult res = solver.solve(init.r);

  const RetimingOracle oracle(g, oracle_for(so, res));
  EXPECT_TRUE(oracle.verify(res, init.r, gains).ok());

  res.objective_gain += 1;  // forge the claim; everything else is intact
  const Verdict v = oracle.verify(res, init.r, gains);
  EXPECT_FALSE(v.ok());
  EXPECT_EQ(v.result(Invariant::kLegality).status, CheckStatus::kPass);
  EXPECT_EQ(v.result(Invariant::kObjective).status, CheckStatus::kFail);
  EXPECT_TRUE(v.diagnostics.has(DiagCode::kOracleObjective))
      << v.diagnostics.summary();
}

TEST(Oracle, SerCrossCheckMatchesReanalysis) {
  const Netlist nl = test::tiny_reconvergent();
  CellLibrary lib;
  RetimingGraph g(nl, lib);
  const InitResult init = initialize_retiming(g, {});

  SerOptions ser;
  ser.timing = init.timing;
  ser.sim = fast_sim();
  const Netlist retimed = apply_retiming(g, init.r, nl.name() + "_rt");
  const double truth = analyze_ser(retimed, lib, ser).total;

  OracleOptions oo;
  oo.timing = init.timing;
  const RetimingOracle oracle(g, oo);

  Verdict good = oracle.verify(init.r);
  oracle.verify_ser(init.r, truth, ser, good);
  EXPECT_EQ(good.result(Invariant::kObjective).status, CheckStatus::kPass)
      << good.summary();
  EXPECT_TRUE(good.ok());

  Verdict forged = oracle.verify(init.r);
  oracle.verify_ser(init.r, truth * 1.5 + 1.0, ser, forged);
  EXPECT_EQ(forged.result(Invariant::kObjective).status, CheckStatus::kFail);
  EXPECT_TRUE(forged.diagnostics.has(DiagCode::kOracleObjective));
  EXPECT_FALSE(forged.ok());
}

TEST(Oracle, CriticalPathMatchesHandComputation) {
  const Netlist nl = test::tiny_pipeline();
  CellLibrary lib;
  // Longest register-to-register / boundary segment: x -> a -> b -> ff.D
  // (two gate delays) versus ff.Q -> c -> PO (one).
  const double expect = std::max(lib.delay(CellType::kBuf) +
                                     lib.delay(CellType::kNot),
                                 lib.delay(CellType::kBuf));
  EXPECT_DOUBLE_EQ(critical_path(nl, lib), expect);
}

TEST(Oracle, LegalityDiagnosticsIdenticalAcrossThreadCounts) {
  // Hundreds of negative edges, far past the diagnostic cap, spread over
  // the whole edge range: every 20th gate borrows five registers.
  RandomCircuitSpec spec;
  spec.gates = 6000;
  spec.dffs = 3000;
  spec.seed = 6;
  const Netlist nl = generate_random_circuit(spec);
  CellLibrary lib;
  RetimingGraph g(nl, lib);
  Retiming bad = g.zero_retiming();
  const auto& gates = g.gate_vertices();
  for (std::size_t i = 0; i < gates.size(); i += 20) bad[gates[i]] = -5;
  std::size_t negative = 0;
  for (EdgeId e = 0; e < g.edge_count(); ++e) negative += g.wr(e, bad) < 0;

  ASSERT_GT(negative, kOracleMaxDiagnostics);
  OracleOptions oo;
  oo.timing = {100.0, 0.0, 2.0};
  const RetimingOracle oracle(g, oo);
  const auto verify_at = [&](int threads) {
    set_execution_threads(threads);
    Verdict v = oracle.verify(bad);
    set_execution_threads(0);
    return v;
  };
  const Verdict ref = verify_at(1);
  ASSERT_EQ(ref.result(Invariant::kLegality).status, CheckStatus::kFail);
  ASSERT_EQ(ref.diagnostics.count(DiagCode::kOracleLegality),
            kOracleMaxDiagnostics);
  const std::string& detail = ref.result(Invariant::kLegality).detail;
  EXPECT_EQ(detail.rfind(std::to_string(negative) + " negative edge(s)", 0),
            0u)
      << detail;
  for (int threads : {2, 3, 4}) {
    const Verdict got = verify_at(threads);
    EXPECT_EQ(got.result(Invariant::kLegality).detail, detail)
        << threads << " threads";
    EXPECT_EQ(got.diagnostics.summary(), ref.diagnostics.summary())
        << threads << " threads";
    ASSERT_EQ(got.diagnostics.diagnostics().size(),
              ref.diagnostics.diagnostics().size())
        << threads << " threads";
    for (std::size_t i = 0; i < ref.diagnostics.diagnostics().size(); ++i)
      EXPECT_EQ(got.diagnostics.diagnostics()[i].message,
                ref.diagnostics.diagnostics()[i].message)
          << "entry " << i << " at " << threads << " threads";
  }
}

}  // namespace
}  // namespace serelin
