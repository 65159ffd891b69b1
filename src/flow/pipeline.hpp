// SolverPipeline: graceful degradation across an ordered fallback chain.
//
// A production flow must return *some* oracle-verified legal retiming even
// when the preferred algorithm runs out of budget or its result fails
// verification. The pipeline tries, in order,
//
//   1. minobswin  — Algorithm 1 (observability + ELW constraints),
//   2. minobs     — Efficient MinObs (observability only),
//   3. minperiod  — classical min-period retiming at the target Φ,
//   4. identity   — the unretimed circuit at its own critical path,
//
// entered at the requested start stage (a minarea start runs minarea →
// minperiod → identity), each stage under its own slice of the overall
// deadline. A stage's result is accepted only when the independent
// RetimingOracle (src/check) signs off on it; a stage that errors out,
// times out, or is rejected triggers one relaxed-budget retry when the
// failure was budget-related, then the chain falls through to the next
// stage. The identity stage cannot fail: a zero retiming at the circuit's
// own critical path is always legal, so the pipeline's contract is "a
// verified result or a recorded reason per stage", never an exception for
// budget exhaustion.
//
// The per-circuit work — graph, Section-V initialization, observability
// and gains, one stage's solve, the oracle call — lives in StageRunner,
// which run_experiment (flow/experiment.hpp) drives too; run_pipeline adds
// the journal, checkpoint/resume and the fallback loop on top.
//
// Every attempt — budget, wall clock, stop reason, verdict — is recorded
// in PipelineResult::attempts and, when a journal path is given, appended
// live to a JSONL run journal (see flow/journal.hpp and
// docs/ROBUSTNESS.md), so post-mortems can reconstruct exactly what was
// tried even if the process dies mid-run.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "check/oracle.hpp"
#include "core/initializer.hpp"
#include "core/solver.hpp"
#include "netlist/cell_library.hpp"
#include "netlist/netlist.hpp"
#include "rgraph/retiming_graph.hpp"
#include "sim/observability.hpp"
#include "support/checkpoint.hpp"
#include "support/deadline.hpp"
#include "timing/params.hpp"

namespace serelin {

enum class PipelineStage : std::uint8_t {
  kMinObsWin,  ///< Algorithm 1 (the paper's full method)
  kMinObs,     ///< Efficient MinObs baseline (no ELW constraints)
  kMinPeriod,  ///< plain min-period retiming at the target Φ
  kIdentity,   ///< the unretimed circuit (always succeeds)
  /// Min-area retiming (register positions under Φ, plus R_min when it is
  /// positive); start stage only, its chain is minarea → minperiod →
  /// identity. Claims no Eq. (5) objective, so the oracle checks
  /// invariants 1–3.
  kMinArea,
};

/// "minobswin" / "minobs" / "minperiod" / "identity" / "minarea" (stable;
/// journaled).
const char* pipeline_stage_name(PipelineStage s);

struct PipelineOptions {
  InitOptions init;  ///< Section-V initialization parameters
  SimConfig sim;     ///< observability simulation fidelity
  /// Target clock period Φ; 0 = use the Section-V initialization period.
  double period = 0.0;
  /// R_min override; negative = use the Section-V value.
  double rmin = -1.0;
  /// §VII area-augmentation knob, forwarded to the gains.
  double area_weight = 0.0;
  /// Overall budget; stages run under slices of it.
  Deadline deadline;
  /// Run the RetimingOracle on every stage result; a result that fails
  /// verification is treated like a failed stage. When false, results are
  /// accepted as the solvers report them (attempts are still journaled).
  bool verify = true;
  /// Budget multiplier for the single relaxed retry of a stage whose
  /// failure was budget-related.
  double retry_factor = 2.0;
  /// Testability override: fixed first-attempt budget per stage in
  /// seconds; 0 = automatic (remaining budget split over remaining
  /// stages). The relaxed retry always uses the automatic slice.
  double stage_budget_s = 0.0;
  /// JSONL journal path; empty = no journal. Opening failure throws.
  std::string journal_path;
  /// Live mirror of every journal record (flow/journal.hpp's
  /// JournalObserver): the job server streams pipeline events to clients
  /// through this. Works with or without `journal_path`; the callback runs
  /// on the solving thread and must not throw.
  std::function<void(const std::string& record)> journal_observer;
  /// First stage to try (earlier stages are skipped, e.g. kMinObs when
  /// the caller never wanted ELW constraints; kMinArea runs its own
  /// chain).
  PipelineStage start = PipelineStage::kMinObsWin;
  /// Durable checkpoint file (docs/ROBUSTNESS.md §11); empty = no
  /// checkpointing. The file always holds a complete snapshot: the stage /
  /// attempt in flight plus the underlying solver's progress section.
  std::string checkpoint_path;
  /// Persist every K-th solver snapshot offer (plus the first and every
  /// forced one). Deterministic, never wall-clock based.
  int checkpoint_every = 16;
  /// Existing checkpoint to resume from; empty = fresh run. The snapshot's
  /// fingerprint must match this circuit + these options (else throws),
  /// and the resumed run reaches the bit-identical accepted result the
  /// uninterrupted one would have. When `journal_path` names an existing
  /// journal, its (possibly torn) tail is recovered and appended to.
  std::string resume_path;
};

/// One stage attempt, as journaled.
struct StageAttempt {
  PipelineStage stage = PipelineStage::kIdentity;
  int attempt = 0;  ///< 0 = first try, 1 = relaxed-budget retry
  double budget_seconds = 0.0;  ///< slice given to this attempt (inf = none)
  double seconds = 0.0;         ///< wall clock actually spent
  StopReason stop_reason = StopReason::kNone;  ///< solver early-stop reason
  bool errored = false;  ///< attempt died (CancelledError, FEAS failure...)
  std::string error;     ///< what() of the failure when errored
  bool verified = false; ///< the oracle ran on this attempt's result
  Verdict verdict;       ///< oracle verdict (meaningful when verified)
  bool accepted = false; ///< this attempt produced the pipeline's result
};

struct PipelineResult {
  /// True when some stage produced an accepted (oracle-verified when
  /// verify was on) result.
  bool ok = false;
  PipelineStage stage = PipelineStage::kIdentity;  ///< accepted stage
  /// True when the accepted stage is not the requested start stage (the
  /// chain degraded) or the accepted result is itself partial.
  bool degraded = false;
  SolverResult solver;   ///< accepted result (identity/minperiod: gain 0)
  Verdict verdict;       ///< oracle verdict of the accepted result
  TimingParams timing;   ///< the Φ/Ts/Th the result is verified against
  double rmin = 0.0;     ///< the R_min in force for the accepted stage
  InitResult init;       ///< Section-V setup the run started from
  std::vector<StageAttempt> attempts;  ///< every attempt, in order
  std::string journal_path;  ///< empty when journaling was off
  bool journal_healthy = true;  ///< false: a journal write failed mid-run
};

/// What one stage produced: a result plus the timing context it claims to
/// be valid under (the identity stage relaxes the period).
struct StageCandidate {
  SolverResult result;
  TimingParams timing;
  double rmin = 0.0;
  bool check_elw = false;  ///< the oracle enforces the R_min invariant
  bool has_gains = false;  ///< objective_gain is a real Eq. (5) claim
};

/// The per-circuit half of the pipeline: one retiming graph, one Section-V
/// initialization with the `period`/`rmin` overrides, one observability
/// run of the unretimed netlist and its gains (both computed on first use
/// and then reused), any stage's solve, and the oracle's verdict on it.
/// Reads `init`, `sim`, `period`, `rmin`, `area_weight` and `deadline`
/// (for the initialization) from the options; the rest is run_pipeline's.
class StageRunner {
 public:
  StageRunner(const Netlist& nl, const CellLibrary& lib,
              const PipelineOptions& options);

  const RetimingGraph& graph() const { return g_; }
  const InitResult& init() const { return init_; }
  /// The Section-V timing with the period override applied.
  const TimingParams& timing() const { return timing_; }
  /// The R_min in force: the override, else the Section-V value.
  double rmin() const { return rmin_; }

  /// Observability of the unretimed netlist under the options' SimConfig,
  /// simulated by the first call under `budget` (all-or-nothing: expiry
  /// throws CancelledError and a later call simulates afresh).
  const ObsResult& observability(const Deadline& budget = {});
  /// The Eq. (5) gains of that observability, computed once likewise.
  const ObsGains& gains(const Deadline& budget = {});

  /// Runs one stage under `budget`, offering solver snapshots to `sink`;
  /// a non-null `solver_snapshot` resumes the stage's solver from it.
  /// Throws CancelledError when an all-or-nothing kernel runs out of
  /// budget and Error when the min-period stage finds the target Φ
  /// infeasible.
  StageCandidate solve(PipelineStage stage, const Deadline& budget = {},
                       const CheckpointSink& sink = {},
                       const std::string* solver_snapshot = nullptr);

  /// The independent oracle's verdict on `c`. Unbudgeted on purpose:
  /// degradation after an expired deadline still ends in a verified
  /// result.
  Verdict verify(const StageCandidate& c) const;

 private:
  RetimingGraph g_;
  SimConfig sim_;
  double area_weight_ = 0.0;
  InitResult init_;
  TimingParams timing_;
  double rmin_ = 0.0;
  std::optional<ObsResult> obs_;
  std::optional<ObsGains> gains_;
};

/// Runs the fallback chain on a finalized netlist. Throws only on caller
/// errors (unopenable journal, unfinalized netlist, a resume checkpoint
/// that does not belong to this input) — budget exhaustion and rejected
/// results degrade through the chain instead.
PipelineResult run_pipeline(const Netlist& nl, const CellLibrary& lib,
                            const PipelineOptions& options);

/// Stable 64-bit digest of everything a pipeline checkpoint is valid for:
/// the exact circuit plus every option that can change the result. Stamped
/// into checkpoints and verified on resume, so a snapshot can never be
/// replayed against a different input.
std::uint64_t pipeline_fingerprint(const Netlist& nl,
                                   const PipelineOptions& options);

}  // namespace serelin
