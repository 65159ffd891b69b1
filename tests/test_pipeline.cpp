// Tests of the graceful-degradation solver pipeline (src/flow/pipeline):
// convergence at the preferred stage, full degradation to the identity
// safety net, the relaxed-budget retry, and the JSONL run journal.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "check/oracle.hpp"
#include "core/min_area.hpp"
#include "flow/pipeline.hpp"
#include "flow/resume_check.hpp"
#include "gen/random_circuit.hpp"
#include "helpers.hpp"
#include "support/atomic_io.hpp"
#include "support/check.hpp"

namespace serelin {
namespace {

PipelineOptions fast_options() {
  PipelineOptions po;
  po.sim.patterns = 128;
  po.sim.frames = 4;
  po.sim.warmup = 8;
  return po;
}

std::vector<std::string> journal_lines(const std::string& path) {
  // Journals are framed (length + CRC per record) since the crash-safety
  // work; read_journal is the one sanctioned reader.
  const JournalRecovery rec = read_journal(path);
  EXPECT_FALSE(rec.torn) << rec.detail;
  return rec.records;
}

bool has_field(const std::string& line, const std::string& key,
               const std::string& value) {
  return line.find('"' + key + "\":\"" + value + '"') != std::string::npos;
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

// Big enough for several min-area commits, small enough for the fast label.
Netlist area_circuit() {
  RandomCircuitSpec spec;
  spec.gates = 120;
  spec.dffs = 30;
  spec.inputs = 6;
  spec.outputs = 6;
  spec.mean_fanin = 2.0;
  spec.seed = 0x5eed0006ULL;
  return generate_random_circuit(spec);
}

TEST(Pipeline, ConvergesAtFirstStage) {
  const Netlist nl = test::tiny_reconvergent();
  CellLibrary lib;
  const PipelineResult res = run_pipeline(nl, lib, fast_options());
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.stage, PipelineStage::kMinObsWin);
  EXPECT_FALSE(res.degraded);
  ASSERT_EQ(res.attempts.size(), 1u);
  EXPECT_TRUE(res.attempts[0].accepted);
  EXPECT_TRUE(res.attempts[0].verified);
  EXPECT_TRUE(res.verdict.ok()) << res.verdict.summary();
  EXPECT_TRUE(res.journal_healthy);
  EXPECT_TRUE(res.journal_path.empty());
}

TEST(Pipeline, StartStageSkipsEarlierOnes) {
  const Netlist nl = test::tiny_reconvergent();
  CellLibrary lib;
  PipelineOptions po = fast_options();
  po.start = PipelineStage::kMinObs;
  const PipelineResult res = run_pipeline(nl, lib, po);
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.stage, PipelineStage::kMinObs);
  EXPECT_FALSE(res.degraded);
  ASSERT_FALSE(res.attempts.empty());
  EXPECT_EQ(res.attempts.front().stage, PipelineStage::kMinObs);
}

TEST(Pipeline, DegradesThroughEveryStageOnInfeasiblePeriod) {
  const Netlist nl = test::tiny_ring();
  CellLibrary lib;
  PipelineOptions po = fast_options();
  // No gate fits in this period, so minobswin and minobs return their
  // (now infeasible) initialization and the oracle rejects it, minperiod's
  // FEAS proves infeasibility, and only the period-relaxing identity stage
  // can produce a verified result.
  po.period = 0.01;
  const std::string journal = temp_path("degrade.jsonl");
  po.journal_path = journal;

  const PipelineResult res = run_pipeline(nl, lib, po);
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.stage, PipelineStage::kIdentity);
  EXPECT_TRUE(res.degraded);
  EXPECT_TRUE(res.verdict.ok()) << res.verdict.summary();
  EXPECT_GE(res.timing.period, critical_path(nl, lib));

  ASSERT_EQ(res.attempts.size(), 4u);
  EXPECT_EQ(res.attempts[0].stage, PipelineStage::kMinObsWin);
  EXPECT_EQ(res.attempts[1].stage, PipelineStage::kMinObs);
  EXPECT_EQ(res.attempts[2].stage, PipelineStage::kMinPeriod);
  EXPECT_EQ(res.attempts[3].stage, PipelineStage::kIdentity);
  // The solver stages were verified and rejected on the period invariant;
  // the min-period stage errored out with a FEAS infeasibility.
  for (int i : {0, 1}) {
    EXPECT_TRUE(res.attempts[i].verified);
    EXPECT_FALSE(res.attempts[i].verdict.ok());
    EXPECT_EQ(res.attempts[i].verdict.result(Invariant::kPeriod).status,
              CheckStatus::kFail);
  }
  EXPECT_TRUE(res.attempts[2].errored);
  EXPECT_TRUE(res.attempts[3].accepted);

  // The journal mirrors the whole run: start, setup, one line per
  // attempt, and the final result event.
  EXPECT_TRUE(res.journal_healthy);
  const std::vector<std::string> lines = journal_lines(journal);
  ASSERT_EQ(lines.size(), 7u);
  for (const std::string& line : lines) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
  EXPECT_TRUE(has_field(lines[0], "event", "start"));
  EXPECT_TRUE(has_field(lines[1], "event", "setup"));
  for (int i = 2; i <= 5; ++i)
    EXPECT_TRUE(has_field(lines[i], "event", "attempt")) << lines[i];
  EXPECT_TRUE(has_field(lines[2], "stage", "minobswin"));
  EXPECT_TRUE(has_field(lines[5], "stage", "identity"));
  EXPECT_TRUE(has_field(lines[6], "event", "result"));
  EXPECT_TRUE(has_field(lines[6], "stage", "identity"));
}

TEST(Pipeline, RelaxedRetryRecoversFromTinyStageBudget) {
  const Netlist nl = test::tiny_reconvergent();
  CellLibrary lib;
  PipelineOptions po = fast_options();
  // First attempt gets a sub-microsecond slice and is cancelled mid-
  // flight; the overall deadline is unlimited, so the relaxed retry runs
  // unbudgeted and must succeed at the same stage.
  po.stage_budget_s = 1e-9;
  const PipelineResult res = run_pipeline(nl, lib, po);
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.stage, PipelineStage::kMinObsWin);
  EXPECT_FALSE(res.degraded);
  ASSERT_EQ(res.attempts.size(), 2u);
  EXPECT_EQ(res.attempts[0].attempt, 0);
  EXPECT_TRUE(res.attempts[0].errored);
  EXPECT_FALSE(res.attempts[0].accepted);
  EXPECT_EQ(res.attempts[1].attempt, 1);
  EXPECT_TRUE(res.attempts[1].accepted);
  EXPECT_TRUE(res.verdict.ok()) << res.verdict.summary();
}

TEST(Pipeline, MinAreaStartAcceptsTheMinAreaRetiming) {
  const Netlist nl = area_circuit();
  CellLibrary lib;
  PipelineOptions po = fast_options();
  po.start = PipelineStage::kMinArea;
  const PipelineResult res = run_pipeline(nl, lib, po);
  ASSERT_TRUE(res.ok);
  EXPECT_EQ(res.stage, PipelineStage::kMinArea);
  EXPECT_FALSE(res.degraded);
  // Min-area claims no Eq. (5) objective: invariants 1-3 only.
  EXPECT_TRUE(res.verdict.ok()) << res.verdict.summary();
  EXPECT_EQ(res.verdict.result(Invariant::kObjective).status,
            CheckStatus::kSkipped);

  const RetimingGraph g(nl, lib);
  const MinAreaResult area =
      min_area_retime(g, res.init.timing, res.init.r, res.init.rmin);
  EXPECT_GT(area.solver.commits, 0);
  EXPECT_EQ(res.solver.r, area.solver.r);
  EXPECT_EQ(res.solver.objective_gain, area.solver.objective_gain);
}

TEST(Pipeline, MinAreaDegradesThroughMinPeriodToIdentity) {
  const Netlist nl = test::tiny_ring();
  CellLibrary lib;
  PipelineOptions po = fast_options();
  po.start = PipelineStage::kMinArea;
  po.period = 0.01;  // infeasible for every stage but identity
  po.journal_path = temp_path("minarea-degrade.jsonl");
  const PipelineResult res = run_pipeline(nl, lib, po);
  EXPECT_TRUE(res.ok);
  EXPECT_EQ(res.stage, PipelineStage::kIdentity);
  EXPECT_TRUE(res.degraded);
  ASSERT_EQ(res.attempts.size(), 3u);
  EXPECT_EQ(res.attempts[0].stage, PipelineStage::kMinArea);
  EXPECT_TRUE(res.attempts[0].verified);
  EXPECT_EQ(res.attempts[0].verdict.result(Invariant::kPeriod).status,
            CheckStatus::kFail);
  EXPECT_EQ(res.attempts[1].stage, PipelineStage::kMinPeriod);
  EXPECT_TRUE(res.attempts[1].errored);
  EXPECT_EQ(res.attempts[2].stage, PipelineStage::kIdentity);
  EXPECT_TRUE(res.attempts[2].accepted);

  const std::vector<std::string> lines = journal_lines(po.journal_path);
  ASSERT_EQ(lines.size(), 6u);
  EXPECT_TRUE(has_field(lines[0], "start_stage", "minarea"));
  EXPECT_TRUE(has_field(lines[2], "stage", "minarea"));
  EXPECT_TRUE(has_field(lines[3], "stage", "minperiod"));
  EXPECT_TRUE(has_field(lines[4], "stage", "identity"));
  EXPECT_TRUE(has_field(lines[5], "event", "result"));
}

TEST(Pipeline, CheckpointedMinAreaRunResumesToTheFreshResult) {
  const Netlist nl = area_circuit();
  CellLibrary lib;
  PipelineOptions po = fast_options();
  po.start = PipelineStage::kMinArea;
  po.checkpoint_path = temp_path("minarea.ckpt");
  po.checkpoint_every = 1;
  std::filesystem::remove(po.checkpoint_path);
  const PipelineResult fresh = run_pipeline(nl, lib, po);
  ASSERT_TRUE(fresh.ok);
  ASSERT_GT(fresh.solver.commits, 0);
  ASSERT_TRUE(std::filesystem::exists(po.checkpoint_path));

  // The last snapshot carries the min-area solver's progress; resuming
  // from it re-enters the minarea stage and lands on the same result.
  PipelineOptions rp = po;
  rp.resume_path = po.checkpoint_path;
  const PipelineResult resumed = run_pipeline(nl, lib, rp);
  std::string detail;
  EXPECT_TRUE(resume_matches_fresh(fresh, resumed, &detail)) << detail;
  ASSERT_FALSE(resumed.attempts.empty());
  EXPECT_EQ(resumed.attempts.front().stage, PipelineStage::kMinArea);

  // A snapshot is only valid for the start stage it was taken under.
  PipelineOptions other = rp;
  other.start = PipelineStage::kMinObsWin;
  EXPECT_THROW(run_pipeline(nl, lib, other), Error);
}

TEST(Pipeline, UnopenableJournalThrows) {
  const Netlist nl = test::tiny_pipeline();
  CellLibrary lib;
  PipelineOptions po = fast_options();
  po.journal_path = "/nonexistent-serelin-dir/journal.jsonl";
  EXPECT_THROW(run_pipeline(nl, lib, po), Error);
}

TEST(Pipeline, VerifyOffStillRecordsAttempts) {
  const Netlist nl = test::tiny_pipeline();
  CellLibrary lib;
  PipelineOptions po = fast_options();
  po.verify = false;
  const PipelineResult res = run_pipeline(nl, lib, po);
  EXPECT_TRUE(res.ok);
  ASSERT_EQ(res.attempts.size(), 1u);
  EXPECT_FALSE(res.attempts[0].verified);
  EXPECT_TRUE(res.attempts[0].accepted);
}

}  // namespace
}  // namespace serelin
