// RetimingOracle — independent result verification for solver output.
//
// The paper's value proposition is a *guarantee*: the retimed circuit is a
// legal retiming, meets the clock constraint, and keeps every register's
// error-latching window under control. The solvers in src/core enforce
// those properties through the regular forest / constraint checker
// machinery — which means a bug there could produce a confidently wrong
// "success". The oracle re-derives each invariant from scratch through
// code paths that share nothing with the solvers:
//
//   1. LEGALITY  — a direct edge loop over w(e) + r(v) − r(u) ≥ 0 and the
//      pinned boundary labels (paper Eq. 1). A plain sequential loop that
//      stores the first kOracleMaxDiagnostics negative edges in edge order,
//      so the verdict is the same at every thread count.
//   2. PERIOD    — the retiming is *materialized* with apply_retiming and
//      a plain forward STA over the rebuilt netlist checks every
//      register-D / primary-output arrival against Φ − Ts. No GraphTiming,
//      no W/D matrices.
//   3. ELW       — exact error-latching windows are recomputed on the
//      materialized netlist with the interval-set engine (timing/elw,
//      paper Eq. 3) and every register-to-logic window is checked against
//      R_min via its interval boundaries (paper Thm. 1: right(ELW) =
//      Φ + Th − min_after).
//   4. OBJECTIVE — the reported K-scaled objective gain is re-derived by
//      two direct Eq. (5) evaluations (plus the §VII area term when
//      enabled); optionally a full Eq. (4) SER re-analysis cross-checks a
//      reported SER total.
//
// Failures come back as a structured Verdict: one InvariantResult per
// invariant plus oracle-* diagnostics in a DiagnosticSink, so tools can
// render and scripts can match codes. The oracle never throws on a wrong
// result — only on violated preconditions (size mismatches). It takes no
// deadline: the pipeline verifies unbudgeted on purpose, so degradation
// after an expired budget still ends in a verified result.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/objective.hpp"
#include "core/solver.hpp"
#include "netlist/cell_library.hpp"
#include "netlist/netlist.hpp"
#include "rgraph/retiming_graph.hpp"
#include "ser/ser_analyzer.hpp"
#include "support/diag.hpp"
#include "timing/params.hpp"

namespace serelin {

/// The four paper invariants the oracle re-derives.
enum class Invariant : std::uint8_t {
  kLegality,   ///< w_r(e) ≥ 0 on every edge, boundary labels pinned (Eq. 1)
  kPeriod,     ///< every combinational path fits in Φ − Ts
  kElw,        ///< every register ELW obeys the R_min short-path bound
  kObjective,  ///< reported objective/SER matches recomputation
};

/// "legality" / "period" / "elw" / "objective" (stable, used in journals).
const char* invariant_name(Invariant id);

enum class CheckStatus : std::uint8_t {
  kPass,
  kFail,
  kSkipped,  ///< not applicable (e.g. period check on an illegal retiming)
};

const char* check_status_name(CheckStatus s);

/// Outcome of one invariant check.
struct InvariantResult {
  Invariant invariant = Invariant::kLegality;
  CheckStatus status = CheckStatus::kSkipped;
  std::string detail;  ///< worst slack / mismatch account, human-readable
};

/// The oracle's structured answer. Always carries one InvariantResult per
/// invariant (in enum order); failures additionally produce oracle-*
/// diagnostics for rendering and code matching.
struct Verdict {
  std::vector<InvariantResult> invariants;
  DiagnosticSink diagnostics;

  /// True when no invariant failed (skipped checks do not fail a verdict).
  bool ok() const;

  const InvariantResult& result(Invariant id) const;

  /// "verified: legality pass, period FAIL, elw pass, objective skipped".
  std::string summary() const;
};

/// Cap on per-invariant diagnostics kept in a Verdict.
inline constexpr std::size_t kOracleMaxDiagnostics = 64;

struct OracleOptions {
  TimingParams timing;  ///< the Φ / Ts / Th the result claims to meet
  double rmin = 0.0;    ///< P2' bound; the ELW check is vacuous when ≤ 0
  /// Check the ELW/R_min invariant. Off for results of solvers that do not
  /// enforce P2' (Efficient MinObs, min-period, identity).
  bool check_elw = true;
  /// §VII area augmentation the solver ran with (0 = paper objective);
  /// folded into the objective recomputation exactly as compute_gains does.
  double area_weight = 0.0;
};

class RetimingOracle {
 public:
  RetimingOracle(const RetimingGraph& g, OracleOptions options);

  /// Verifies invariants 1–3 of a bare retiming; the objective invariant
  /// is reported as skipped (nothing was claimed).
  Verdict verify(const Retiming& r) const;

  /// Verifies all four invariants of a solver result: the reported
  /// objective_gain is re-derived from two direct Eq. (5) evaluations
  /// between `initial` and `result.r` using `gains` observabilities.
  Verdict verify(const SolverResult& result, const Retiming& initial,
                 const ObsGains& gains) const;

  /// Appends the Eq. (4) SER cross-check to `v` (folded into the
  /// objective invariant's diagnostics): re-analyzes the materialized
  /// retimed netlist and compares with the reported total.
  void verify_ser(const Retiming& r, double reported,
                  const SerOptions& options, Verdict& v) const;

  const OracleOptions& options() const { return opt_; }

 private:
  InvariantResult check_legality(const Retiming& r, Verdict& v) const;
  InvariantResult check_period(const Netlist& retimed, Verdict& v) const;
  InvariantResult check_elw(const Netlist& retimed, Verdict& v) const;
  InvariantResult check_objective(const SolverResult& result,
                                  const Retiming& initial,
                                  const ObsGains& gains, Verdict& v) const;

  const RetimingGraph* g_;
  OracleOptions opt_;
};

/// Longest combinational path of a finalized netlist (register/PI output
/// to register-D/PO input) by forward STA — the oracle's independent
/// period measurement, exposed for the pipeline's identity stage.
double critical_path(const Netlist& nl, const CellLibrary& lib);

}  // namespace serelin
