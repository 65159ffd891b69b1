// Tests of the packaged Section-VI experiment flow (src/flow).
#include <gtest/gtest.h>

#include "flow/experiment.hpp"
#include "gen/random_circuit.hpp"
#include "helpers.hpp"

namespace serelin {
namespace {

Netlist flow_circuit(std::uint64_t seed = 515) {
  RandomCircuitSpec spec;
  spec.name = "flow";
  spec.gates = 200;
  spec.dffs = 50;
  spec.inputs = 10;
  spec.outputs = 10;
  spec.mean_fanin = 2.0;
  spec.seed = seed;
  return generate_random_circuit(spec);
}

FlowConfig fast_config() {
  FlowConfig config;
  config.sim.patterns = 256;
  config.sim.frames = 4;
  config.sim.warmup = 8;
  return config;
}

TEST(Flow, RowFieldsAreConsistent) {
  const Netlist nl = flow_circuit();
  CellLibrary lib;
  const ExperimentRow row = run_experiment(nl, lib, fast_config());
  EXPECT_EQ(row.name, nl.name());
  EXPECT_EQ(row.vertices, nl.gate_count());
  EXPECT_EQ(row.ffs, static_cast<std::int64_t>(nl.dff_count()));
  EXPECT_GT(row.edges, row.vertices);  // mean fanin 2 plus PO sinks
  EXPECT_GT(row.phi, 0.0);
  EXPECT_GE(row.rmin, 0.0);
  EXPECT_GT(row.ser_original, 0.0);
  EXPECT_GE(row.analysis_seconds, 0.0);
}

TEST(Flow, BothAlgorithmsReportOutcomes) {
  const Netlist nl = flow_circuit();
  CellLibrary lib;
  const ExperimentRow row = run_experiment(nl, lib, fast_config());
  for (const AlgoOutcome* a : {&row.minobs, &row.minobswin}) {
    EXPECT_GE(a->solver.objective_gain, 0);
    EXPECT_GT(a->ffs, 0);
    EXPECT_GT(a->ser, 0.0);
    EXPECT_GE(a->seconds, 0.0);
    EXPECT_NEAR(a->dser, (a->ser - row.ser_original) / row.ser_original,
                1e-12);
    EXPECT_NEAR(a->dff_change,
                static_cast<double>(a->ffs - row.ffs) / row.ffs, 1e-12);
  }
  // MinObsWin solves the more constrained problem.
  EXPECT_LE(row.minobswin.solver.objective_gain,
            row.minobs.solver.objective_gain);
}

TEST(Flow, SkippingMinObsLeavesItEmpty) {
  const Netlist nl = flow_circuit();
  CellLibrary lib;
  FlowConfig config = fast_config();
  config.run_minobs = false;
  const ExperimentRow row = run_experiment(nl, lib, config);
  EXPECT_EQ(row.minobs.solver.commits, 0);
  EXPECT_EQ(row.minobs.ffs, 0);
  EXPECT_GT(row.minobswin.ffs, 0);
}

TEST(Flow, SkippingReanalysisSkipsSer) {
  const Netlist nl = flow_circuit();
  CellLibrary lib;
  FlowConfig config = fast_config();
  config.reanalyze_ser = false;
  const ExperimentRow row = run_experiment(nl, lib, config);
  EXPECT_DOUBLE_EQ(row.ser_original, 0.0);
  EXPECT_DOUBLE_EQ(row.minobswin.ser, 0.0);
  EXPECT_GT(row.minobswin.ffs, 0);  // the solver still ran
}

TEST(Flow, RminOverrideIsHonoured) {
  const Netlist nl = flow_circuit();
  CellLibrary lib;
  FlowConfig config = fast_config();
  config.run_minobs = false;
  config.reanalyze_ser = false;
  config.rmin_override = 0.0;  // P2' disabled
  const ExperimentRow loose = run_experiment(nl, lib, config);
  EXPECT_DOUBLE_EQ(loose.rmin, 0.0);
  config.rmin_override = 1e6;  // absurd: initial retiming infeasible
  const ExperimentRow blocked = run_experiment(nl, lib, config);
  EXPECT_TRUE(blocked.minobswin.solver.exited_early);
  EXPECT_EQ(blocked.minobswin.solver.objective_gain, 0);
  // With P2' off the solver matches the MinObs baseline gain.
  FlowConfig both = fast_config();
  both.reanalyze_ser = false;
  const ExperimentRow b = run_experiment(nl, lib, both);
  EXPECT_EQ(loose.minobswin.solver.objective_gain,
            b.minobs.solver.objective_gain);
}

TEST(Flow, AreaWeightBiasesTowardFewerRegisters) {
  const Netlist nl = flow_circuit(929);
  CellLibrary lib;
  FlowConfig plain = fast_config();
  plain.run_minobs = false;
  plain.reanalyze_ser = false;
  FlowConfig area = plain;
  area.area_weight = 4.0;  // strongly value register positions
  const ExperimentRow p = run_experiment(nl, lib, plain);
  const ExperimentRow a = run_experiment(nl, lib, area);
  EXPECT_LE(a.minobswin.ffs, p.minobswin.ffs);
}

TEST(Flow, VerifyRunsTheOracleOnBothAlgorithms) {
  const Netlist nl = flow_circuit();
  CellLibrary lib;
  FlowConfig config = fast_config();
  config.verify = true;
  config.reanalyze_ser = false;
  const ExperimentRow row = run_experiment(nl, lib, config);
  ASSERT_TRUE(row.minobswin.verified);
  EXPECT_TRUE(row.minobswin.verdict.ok()) << row.minobswin.verdict.summary();
  ASSERT_TRUE(row.minobs.verified);
  EXPECT_TRUE(row.minobs.verdict.ok()) << row.minobs.verdict.summary();

  FlowConfig off = fast_config();
  off.reanalyze_ser = false;
  EXPECT_FALSE(run_experiment(nl, lib, off).minobswin.verified);
}

TEST(Flow, OriginalSerReusesTheGainsObservability) {
  // The row's original-circuit SER comes from the observability run the
  // gains used; it must equal a fresh stand-alone analysis bit for bit.
  const Netlist nl = flow_circuit();
  CellLibrary lib;
  const FlowConfig config = fast_config();
  const ExperimentRow row = run_experiment(nl, lib, config);
  const InitResult init =
      initialize_retiming(RetimingGraph(nl, lib), config.init);
  EXPECT_EQ(row.ser_original,
            analyze_ser(nl, lib, {init.timing, config.sim}).total);
}

TEST(Flow, DeterministicAcrossRuns) {
  const Netlist nl = flow_circuit();
  CellLibrary lib;
  const ExperimentRow a = run_experiment(nl, lib, fast_config());
  const ExperimentRow b = run_experiment(nl, lib, fast_config());
  EXPECT_EQ(a.minobswin.solver.r, b.minobswin.solver.r);
  EXPECT_DOUBLE_EQ(a.ser_original, b.ser_original);
  EXPECT_DOUBLE_EQ(a.minobswin.ser, b.minobswin.ser);
}

}  // namespace
}  // namespace serelin
