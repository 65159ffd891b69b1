#include "flow/pipeline.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <optional>
#include <sstream>
#include <tuple>
#include <utility>
#include <vector>

#include "core/min_area.hpp"
#include "core/min_period.hpp"
#include "core/objective.hpp"
#include "flow/journal.hpp"
#include "netlist/bench_io.hpp"
#include "support/atomic_io.hpp"
#include "support/check.hpp"
#include "support/checkpoint.hpp"
#include "support/metrics.hpp"
#include "support/stopwatch.hpp"
#include "support/trace.hpp"

namespace serelin {

const char* pipeline_stage_name(PipelineStage s) {
  switch (s) {
    case PipelineStage::kMinObsWin:
      return "minobswin";
    case PipelineStage::kMinObs:
      return "minobs";
    case PipelineStage::kMinPeriod:
      return "minperiod";
    case PipelineStage::kIdentity:
      return "identity";
    case PipelineStage::kMinArea:
      return "minarea";
  }
  return "identity";
}

namespace {

/// Stage span labels must be literals with static storage (the tracer
/// keeps the pointer), hence this sibling of pipeline_stage_name.
[[maybe_unused]] const char* stage_span_name(PipelineStage s) {
  switch (s) {
    case PipelineStage::kMinObsWin:
      return "pipeline/minobswin";
    case PipelineStage::kMinObs:
      return "pipeline/minobs";
    case PipelineStage::kMinPeriod:
      return "pipeline/minperiod";
    case PipelineStage::kIdentity:
      return "pipeline/identity";
    case PipelineStage::kMinArea:
      return "pipeline/minarea";
  }
  return "pipeline/identity";
}

/// The stages a run starting at `start` tries, in order.
std::vector<PipelineStage> stage_chain(PipelineStage start) {
  if (start == PipelineStage::kMinArea)
    return {start, PipelineStage::kMinPeriod, PipelineStage::kIdentity};
  std::vector<PipelineStage> chain;
  for (int s = static_cast<int>(start);
       s <= static_cast<int>(PipelineStage::kIdentity); ++s)
    chain.push_back(static_cast<PipelineStage>(s));
  return chain;
}

void journal_attempt(RunJournal& journal, const StageAttempt& a,
                     const MetricsSnapshot& metrics) {
  JsonObject o;
  o.set("event", "attempt")
      .set("stage", pipeline_stage_name(a.stage))
      .set("attempt", a.attempt)
      .set("budget_s", a.budget_seconds)
      .set("seconds", a.seconds)
      .set("stop", stop_reason_name(a.stop_reason))
      .set("errored", a.errored);
  if (a.errored) o.set("error", a.error);
  o.set("verified", a.verified);
  if (a.verified) {
    o.set("verdict_ok", a.verdict.ok());
    for (const InvariantResult& r : a.verdict.invariants)
      o.set(invariant_name(r.invariant), check_status_name(r.status));
  }
  o.set("accepted", a.accepted);
  if (metrics_compiled_in()) o.set_json("metrics", metrics_json(metrics));
  journal.write(o);
}

/// The checkpoint's "pipeline" context section: which stage/attempt the
/// snapshot was taken inside.
std::string encode_pipeline_section(int stage, int attempt) {
  BinWriter w;
  w.u32(static_cast<std::uint32_t>(stage));
  w.u32(static_cast<std::uint32_t>(attempt));
  return w.take();
}

std::pair<int, int> decode_pipeline_section(std::string_view bytes) {
  BinReader rd(bytes);
  const int stage = static_cast<int>(rd.u32());
  const int attempt = static_cast<int>(rd.u32());
  if (!rd.done())
    throw ParseError("pipeline section: trailing bytes past the snapshot");
  return {stage, attempt};
}

}  // namespace

std::uint64_t pipeline_fingerprint(const Netlist& nl,
                                   const PipelineOptions& options) {
  // The exact circuit, via its canonical BENCH text, plus every option
  // that can change the accepted result. Budgets (deadline, journal,
  // checkpoint cadence) are deliberately excluded: they change *when*
  // snapshots happen, never what a completed run computes.
  std::ostringstream bench;
  write_bench(bench, nl);
  BinWriter w;
  w.str(bench.str());
  const auto f64 = [&w](double d) { w.u64(std::bit_cast<std::uint64_t>(d)); };
  f64(options.init.setup);
  f64(options.init.hold);
  f64(options.init.epsilon);
  w.i32(options.init.feas_passes);
  w.u8(options.init.integer_period ? 1 : 0);
  w.i32(options.sim.patterns);
  w.i32(options.sim.frames);
  w.i32(options.sim.warmup);
  w.u64(options.sim.seed);
  f64(options.period);
  f64(options.rmin);
  f64(options.area_weight);
  w.u8(options.verify ? 1 : 0);
  w.u8(static_cast<std::uint8_t>(options.start));
  // FNV-1a 64 over the packed bytes: stable across platforms and runs.
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : w.bytes()) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

StageRunner::StageRunner(const Netlist& nl, const CellLibrary& lib,
                         const PipelineOptions& options)
    : g_(nl, lib), sim_(options.sim), area_weight_(options.area_weight) {
  InitOptions init_options = options.init;
  init_options.deadline = options.deadline;
  init_ = initialize_retiming(g_, init_options);
  timing_ = init_.timing;
  if (options.period > 0) timing_.period = options.period;
  rmin_ = options.rmin >= 0 ? options.rmin : init_.rmin;
}

const ObsResult& StageRunner::observability(const Deadline& budget) {
  if (!obs_) {
    SimConfig sim = sim_;
    sim.deadline = budget;
    obs_ = ObservabilityAnalyzer(g_.netlist(), sim).run();
  }
  return *obs_;
}

const ObsGains& StageRunner::gains(const Deadline& budget) {
  if (!gains_)
    gains_ = compute_gains(g_, observability(budget).obs, sim_.patterns,
                           area_weight_);
  return *gains_;
}

StageCandidate StageRunner::solve(PipelineStage stage, const Deadline& budget,
                                  const CheckpointSink& sink,
                                  const std::string* solver_snapshot) {
  StageCandidate c;
  c.timing = timing_;
  c.rmin = rmin_;
  switch (stage) {
    case PipelineStage::kMinObsWin:
    case PipelineStage::kMinObs:
    case PipelineStage::kMinArea: {
      // Min-area is the same solver on unit observabilities
      // (core/min_area.hpp), keeping hold/ELW control when R_min > 0.
      const bool area = stage == PipelineStage::kMinArea;
      std::optional<ObsGains> unit;
      const ObsGains& stage_gains =
          area ? unit.emplace(area_gains(g_)) : gains(budget);
      SolverOptions so;
      so.timing = timing_;
      so.rmin = rmin_;
      so.enforce_elw = area ? rmin_ > 0.0 : stage == PipelineStage::kMinObsWin;
      so.deadline = budget;
      so.checkpoint = sink;
      MinObsWinSolver solver(g_, stage_gains, so);
      c.result = solver_snapshot
                     ? solver.resume(SolverProgress::decode(*solver_snapshot))
                     : solver.solve(init_.r);
      c.check_elw = stage == PipelineStage::kMinObsWin && rmin_ > 0 &&
                    !c.result.exited_early;
      c.has_gains = !area;
      break;
    }
    case PipelineStage::kMinPeriod: {
      if (timing_.period >= init_.timing.period) {
        // The Section-V initialization already meets this (or a looser)
        // period, and it is legal by construction.
        c.result.r = init_.r;
        c.result.stop_detail = "min-period: Section-V initialization";
        break;
      }
      MinPeriodRetimer::Options mo;
      mo.setup = timing_.setup;
      mo.deadline = budget;
      MinPeriodRetimer retimer(g_, mo);
      const std::optional<Retiming> r =
          retimer.retime_for_period(timing_.period, init_.r);
      if (!r) {
        // An interrupted FEAS probe reports infeasible; distinguish
        // "ran out of budget" (retryable) from "truly infeasible".
        budget.check("pipeline/minperiod");
        throw Error("min-period stage: no retiming achieves phi = " +
                    std::to_string(timing_.period));
      }
      c.result.r = *r;
      c.result.stop_detail = "min-period: FEAS at the target period";
      break;
    }
    case PipelineStage::kIdentity: {
      // The unretimed circuit at its own critical path: legal by
      // definition, so this stage is the chain's safety net. The period
      // is relaxed to whatever the circuit actually needs.
      c.result.r = g_.zero_retiming();
      c.timing.period =
          std::max(timing_.period,
                   critical_path(g_.netlist(), g_.library()) + timing_.setup);
      c.result.stop_detail = "identity: unretimed circuit, phi relaxed";
      break;
    }
  }
  return c;
}

Verdict StageRunner::verify(const StageCandidate& c) const {
  OracleOptions oracle_options;
  oracle_options.timing = c.timing;
  oracle_options.rmin = c.rmin;
  oracle_options.check_elw = c.check_elw;
  oracle_options.area_weight = area_weight_;
  const RetimingOracle oracle(g_, oracle_options);
  return c.has_gains ? oracle.verify(c.result, init_.r, *gains_)
                     : oracle.verify(c.result.r);
}

PipelineResult run_pipeline(const Netlist& nl, const CellLibrary& lib,
                            const PipelineOptions& options) {
  SERELIN_SPAN("pipeline/run");
  SERELIN_REQUIRE(nl.finalized(), "run_pipeline needs a finalized netlist");

  const bool wants_checkpoint =
      !options.checkpoint_path.empty() || !options.resume_path.empty();
  const std::uint64_t fingerprint =
      wants_checkpoint ? pipeline_fingerprint(nl, options) : 0;
  const std::vector<PipelineStage> chain = stage_chain(options.start);

  // Resume: load the snapshot (if one was ever written — a run killed
  // before its first snapshot legitimately left none) and reject anything
  // that does not belong to this exact circuit + these options.
  CheckpointImage snapshot;
  bool resuming = false;
  std::size_t resume_pos = 0;
  int resume_attempt = 0;
  if (!options.resume_path.empty() &&
      load_checkpoint(options.resume_path, snapshot)) {
    SERELIN_REQUIRE(snapshot.kind == "pipeline",
                    "resume checkpoint has kind '" + snapshot.kind +
                        "', expected 'pipeline'");
    SERELIN_REQUIRE(snapshot.fingerprint == fingerprint,
                    "resume checkpoint fingerprint mismatch: the snapshot "
                    "belongs to a different circuit or pipeline options");
    const std::string* ctx = snapshot.find("pipeline");
    SERELIN_REQUIRE(ctx != nullptr,
                    "resume checkpoint lacks its pipeline section");
    int resume_stage = 0;
    std::tie(resume_stage, resume_attempt) = decode_pipeline_section(*ctx);
    resume_pos = static_cast<std::size_t>(
        std::find(chain.begin(), chain.end(),
                  static_cast<PipelineStage>(resume_stage)) -
        chain.begin());
    SERELIN_REQUIRE(resume_pos < chain.size(),
                    "resume checkpoint names an impossible stage");
    resuming = true;
  }

  // A journal interrupted by a crash may carry a torn final record; recover
  // (truncate to the last intact frame) before appending, and replay it so
  // the resume event can record how far the dead run had journaled.
  std::string journal_last_stage;
  if (!options.journal_path.empty() &&
      !options.resume_path.empty() &&
      std::filesystem::exists(options.journal_path)) {
    const JournalRecovery replay = recover_journal(options.journal_path);
    for (const std::string& record : replay.records) {
      const auto event = json_string_field(record, "event");
      if (event && (*event == "attempt" || *event == "result")) {
        if (const auto stage = json_string_field(record, "stage"))
          journal_last_stage = *stage;
      }
    }
  }
  RunJournal journal =
      options.journal_path.empty()
          ? RunJournal()
          : RunJournal(options.journal_path,
                       options.resume_path.empty()
                           ? JournalWriter::Mode::kTruncate
                           : JournalWriter::Mode::kAppend);
  if (options.journal_observer) journal.set_observer(options.journal_observer);
  PipelineResult out;
  out.journal_path = options.journal_path;

  {
    JsonObject o;
    o.set("event", "start")
        .set("circuit", nl.name())
        .set("start_stage", pipeline_stage_name(options.start))
        .set("phi_target", options.period)
        .set("verify", options.verify)
        .set("deadline_s", options.deadline.remaining_seconds());
    journal.write(o);
  }
  if (!options.resume_path.empty()) {
    JsonObject o;
    o.set("event", "resume")
        .set("had_snapshot", resuming)
        .set("stage", pipeline_stage_name(chain[resume_pos]))
        .set("attempt", resume_attempt);
    if (!journal_last_stage.empty())
      o.set("journal_stage", journal_last_stage);
    journal.write(o);
  }

  CheckpointSink sink;
  if (!options.checkpoint_path.empty())
    sink = CheckpointSink(options.checkpoint_path, "pipeline", fingerprint,
                          options.checkpoint_every);

  Stopwatch init_watch;
  StageRunner runner(nl, lib, options);
  out.init = runner.init();

  {
    JsonObject o;
    o.set("event", "setup")
        .set("phi", runner.timing().period)
        .set("phi_init", out.init.timing.period)
        .set("rmin", runner.rmin())
        .set("setup_hold_ok", out.init.setup_hold_ok)
        .set("seconds", init_watch.seconds());
    journal.write(o);
  }

  // On resume the chain re-enters at the snapshot's stage/attempt; the
  // first attempt of that stage continues from the solver's own progress
  // section when the snapshot carries one (a stage-boundary snapshot does
  // not, and the stage simply restarts — same result either way).
  bool consume_snapshot = resuming;
  for (std::size_t pos = resume_pos; pos < chain.size(); ++pos) {
    const PipelineStage stage = chain[pos];
    const auto stages_left = static_cast<double>(chain.size() - pos);
    for (int attempt = consume_snapshot ? resume_attempt : 0; attempt < 2;
         ++attempt) {
      const double auto_budget =
          options.deadline.remaining_seconds() / stages_left;
      const double budget =
          attempt == 0
              ? (options.stage_budget_s > 0 ? options.stage_budget_s
                                            : auto_budget)
              : auto_budget * options.retry_factor;
      const Deadline slice = options.deadline.slice(budget);
      SERELIN_COUNT(kDeadlineSlices, 1);

      // Snapshots written inside this attempt carry its stage/attempt as
      // context; the attempt-entry force marks the stage boundary durably
      // even if the solver below never offers.
      CheckpointSink stage_sink;
      if (sink.enabled()) {
        stage_sink = sink.with_section(
            "pipeline",
            encode_pipeline_section(static_cast<int>(stage), attempt));
        stage_sink.force([](CheckpointImage&) {});
      }
      const std::string* solver_snapshot = nullptr;
      if (consume_snapshot) {
        consume_snapshot = false;
        solver_snapshot = snapshot.find("solver");
      }

      StageAttempt rec;
      rec.stage = stage;
      rec.attempt = attempt;
      rec.budget_seconds = budget;
      bool cancelled = false;
      std::optional<StageCandidate> candidate;
      const MetricsSnapshot metrics_before = metrics_snapshot();
      Stopwatch watch;
      try {
        SERELIN_SPAN(stage_span_name(stage));
        candidate = runner.solve(stage, slice, stage_sink, solver_snapshot);
      } catch (const CancelledError& e) {
        rec.errored = true;
        rec.error = e.what();
        cancelled = true;
      } catch (const Error& e) {
        rec.errored = true;
        rec.error = e.what();
      }
      rec.seconds = watch.seconds();
      if (candidate) {
        rec.stop_reason = candidate->result.stop_reason;
        if (options.verify) {
          rec.verdict = runner.verify(*candidate);
          rec.verified = true;
          rec.accepted = rec.verdict.ok();
        } else {
          rec.accepted = true;
        }
      }
      journal_attempt(journal, rec, metrics_snapshot() - metrics_before);
      out.attempts.push_back(rec);

      if (rec.accepted) {
        out.ok = true;
        out.stage = stage;
        out.solver = std::move(candidate->result);
        out.verdict = std::move(rec.verdict);
        out.timing = candidate->timing;
        out.rmin = candidate->rmin;
        out.degraded = stage != options.start || out.solver.partial();
        JsonObject o;
        o.set("event", "result")
            .set("ok", true)
            .set("stage", pipeline_stage_name(stage))
            .set("degraded", out.degraded)
            .set("phi", out.timing.period)
            .set("rmin", out.rmin)
            .set("objective_gain", out.solver.objective_gain)
            .set("attempts", static_cast<int>(out.attempts.size()));
        journal.write(o);
        out.journal_healthy = journal.healthy();
        return out;
      }

      // One relaxed-budget retry, and only when more budget could actually
      // change the outcome: the attempt was cancelled mid-flight or the
      // solver stopped early at a checkpoint.
      const bool budget_related =
          cancelled || rec.stop_reason != StopReason::kNone;
      if (attempt == 0 && budget_related && !options.deadline.expired())
        continue;
      break;  // degrade to the next stage
    }
  }

  // Unreachable in practice — the identity stage always verifies — but a
  // sound answer is still produced if it ever does not.
  JsonObject o;
  o.set("event", "result")
      .set("ok", false)
      .set("attempts", static_cast<int>(out.attempts.size()));
  journal.write(o);
  out.journal_healthy = journal.healthy();
  return out;
}

}  // namespace serelin
