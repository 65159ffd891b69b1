// One differential-fuzzing iteration: run every solver engine the project
// ships on the same circuit and assert that they agree.
//
// The solver stack has redundant implementations by design — the regular
// forest (MinObsWin), the closure solver, exhaustive enumeration, FEAS and
// the exact W/D min-period search (src/check/wd_matrices.hpp),
// incremental and from-scratch relabeling — and the paper's own test
// invariants tie them together: the forest must match exhaustive search
// exactly on tiny instances, the closure solver must not beat the forest,
// FEAS can never beat the exact W/D period, incremental relabeling is
// bit-identical to compute(). The closure-vs-forest relation is checked,
// not proven: the `expect: divergent` entries in tests/corpus/found are
// circuits where the closure solver's gain exceeds the forest's (the P2'
// attribution gap). A differential run executes all of them on
// one netlist and turns every violated agreement into a structured
// Divergence, so the solvers property of tools/serelin_campaign only has
// to generate circuits and count.
//
// Timeouts are not disagreements: an engine that stops at its deadline
// returns a Partial result whose stop_detail says so, is reported with
// EngineStatus::kTimeout, and is excluded from objective comparisons. A
// Partial result with an *empty* stop_detail, on the other hand, is a
// contract violation ("partial-without-detail") — the whole point of the
// stop_detail field is that a differential harness must never confuse
// "ran out of time" with "computed a different answer".
//
// Self-check: PlantedFault seeds a known divergence into one engine's
// inputs or outputs (fault_inject-style), so the solvers self-check can
// prove its detection power before a clean campaign is trusted.
//
// Corpus sidecars: a solvers counterexample's `.repro` sidecar records the
// DiffConfig it was found under, so its replay runs exactly that config.
// append_diff_config() writes the block and parse_replay_spec() reads it
// back; the campaign driver and the corpus tests share the pair.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "netlist/netlist.hpp"
#include "support/corpus.hpp"
#include "support/deadline.hpp"

namespace serelin {

/// Fault planted into one engine of a differential run (self-check mode).
/// kNone fuzzes honestly; everything else must surface as >= 1 divergence.
enum class FaultKind : std::uint8_t {
  kNone,
  kObjectiveSkew,    ///< inflate the reported objective_gain (oracle catches)
  kRetimingPerturb,  ///< corrupt one retiming label (legality catches)
  kGainSkew,         ///< solver sees a skewed gain vector (objective catches)
  kRminSkew,         ///< solver sees a halved R_min (ELW oracle catches)
  kPeriodSkew,       ///< solver sees a relaxed period (period oracle catches)
  kStopDetailDrop,   ///< Partial result with stop_detail stripped
};

/// Number of fault kinds including kNone (for schedule sweeps).
inline constexpr int kNumFaultKinds = 7;

/// Stable names: "none", "objective-skew", ... (CLI flags and journals).
const char* fault_kind_name(FaultKind kind);

struct PlantedFault {
  FaultKind kind = FaultKind::kNone;
  /// Engine the fault applies to: 0 = forest (MinObsWin), 1 = closure.
  int engine = 0;
};

/// Knobs of one differential run. Defaults are sized for fuzzing: small
/// simulations, exhaustive search only on tiny gate counts.
struct DiffConfig {
  // Observability simulation driving the gains (kept small: the engines
  // must agree for *any* gain vector, accuracy is irrelevant here).
  int patterns = 128;   ///< K; multiple of 64
  int frames = 3;
  int warmup = 4;
  std::uint64_t sim_seed = 0x5e7e11a5ULL;

  bool enforce_elw = true;   ///< run MinObsWin (else MinObs baseline mode)
  double area_weight = 0.0;  ///< §VII area term forwarded to compute_gains

  /// Gate-count ceiling for the exhaustive reference ((bound+1)^gates
  /// feasibility checks); above it only forest-vs-closure is compared.
  std::size_t exhaustive_max_gates = 7;
  int exhaustive_bound = 3;

  /// Per-engine wall-clock budget in seconds; <= 0 means none. Engines
  /// that hit it report kTimeout, not a divergence.
  double engine_seconds = 0.0;

  /// Moves of the incremental-relabeling random walk and its seed.
  int walk_moves = 24;
  std::uint64_t walk_seed = 1;

  PlantedFault fault;  ///< self-check fault (kind kNone = honest run)
};

enum class EngineStatus : std::uint8_t {
  kOk,       ///< converged; participates in every comparison
  kTimeout,  ///< Partial with stop_detail; excluded from objective checks
  kSkipped,  ///< not run (config or size gate)
  kCrashed,  ///< threw; always a divergence
};

const char* engine_status_name(EngineStatus s);

/// Per-engine record of a differential run.
struct EngineOutcome {
  std::string name;  ///< "forest", "closure", "exhaustive", ...
  EngineStatus status = EngineStatus::kSkipped;
  std::int64_t objective_gain = 0;
  std::string detail;  ///< stop_detail / exception text / skip reason
};

/// One violated agreement. `kind` is a stable slug ("objective-mismatch",
/// "oracle-reject", ...) listed in docs/ROBUSTNESS.md; `detail` is the
/// human-readable account.
struct Divergence {
  std::string kind;
  std::string detail;
};

/// Aggregated verdict of one differential run over all engines.
struct DifferentialReport {
  std::vector<EngineOutcome> engines;
  std::vector<Divergence> divergences;
  bool ran = false;  ///< false when setup (graph/init/sim) itself failed

  bool divergent() const { return !divergences.empty(); }

  /// "clean: 5 engines agree" / "DIVERGENT: objective-mismatch (...)".
  std::string summary() const;
};

/// Runs every configured engine on `nl` and cross-checks the results.
/// Never throws on a wrong solver answer — wrongness becomes a Divergence
/// (setup failures are reported the same way with ran = false).
DifferentialReport run_differential(const Netlist& nl, const DiffConfig& cfg);

/// What a solvers corpus entry's sidecar promises: the config its replay
/// runs under and the verdict that replay must reproduce.
struct ReplaySpec {
  DiffConfig cfg;
  bool expect_divergent = false;
};

/// Appends the config block, one `key: value` field per DiffConfig knob,
/// to a sidecar's fields.
void append_diff_config(const DiffConfig& cfg, SidecarFields& fields);

/// Parses a solvers sidecar (marker `serelin_campaign solvers v1`): its
/// `expect:` verdict and config block. nullopt when the marker names
/// another property; absent or malformed fields keep their defaults.
std::optional<ReplaySpec> parse_replay_spec(std::string_view sidecar);

}  // namespace serelin
