#include "check/oracle.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "rgraph/apply.hpp"
#include "support/check.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"
#include "timing/elw.hpp"

namespace serelin {

namespace {

// Numeric slack for path-delay comparisons. Wider than the solver's
// internal 1e-9: the oracle sums delays in a different order, so it must
// tolerate associativity noise without passing real violations.
constexpr double kEps = 1e-6;

// Relative tolerance of the SER cross-check (analysis is deterministic, so
// only summation-order noise needs absorbing).
constexpr double kSerRelTol = 1e-9;

// Forward STA over the one-cycle combinational network: arrival time at
// every node's *output*, with sources (PIs, register Qs, constants)
// launching at 0. Independent of GraphTiming on purpose.
std::vector<double> forward_arrivals(const Netlist& nl,
                                     const CellLibrary& lib) {
  std::vector<double> arrival(nl.node_count(), 0.0);
  for (NodeId id : nl.gate_order()) {
    const Node& n = nl.node(id);
    double in = 0.0;
    for (NodeId f : n.fanins) in = std::max(in, arrival[f]);
    arrival[id] = in + lib.delay(n.type);
  }
  return arrival;
}

std::string fmt(double x) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", x);
  return buf;
}

InvariantResult skipped(Invariant id, std::string why) {
  return {id, CheckStatus::kSkipped, std::move(why)};
}

}  // namespace

const char* invariant_name(Invariant id) {
  switch (id) {
    case Invariant::kLegality:
      return "legality";
    case Invariant::kPeriod:
      return "period";
    case Invariant::kElw:
      return "elw";
    case Invariant::kObjective:
      return "objective";
  }
  return "legality";
}

const char* check_status_name(CheckStatus s) {
  switch (s) {
    case CheckStatus::kPass:
      return "pass";
    case CheckStatus::kFail:
      return "fail";
    case CheckStatus::kSkipped:
      return "skipped";
  }
  return "skipped";
}

bool Verdict::ok() const {
  return std::none_of(invariants.begin(), invariants.end(),
                      [](const InvariantResult& r) {
                        return r.status == CheckStatus::kFail;
                      });
}

const InvariantResult& Verdict::result(Invariant id) const {
  for (const InvariantResult& r : invariants)
    if (r.invariant == id) return r;
  SERELIN_ASSERT(false, "Verdict is missing an invariant entry");
  std::abort();  // unreachable; SERELIN_ASSERT throws
}

std::string Verdict::summary() const {
  std::string out = ok() ? "verified: " : "REJECTED: ";
  bool first = true;
  for (const InvariantResult& r : invariants) {
    if (!first) out += ", ";
    first = false;
    out += invariant_name(r.invariant);
    out += ' ';
    out += r.status == CheckStatus::kFail ? "FAIL"
                                          : check_status_name(r.status);
  }
  return out;
}

double critical_path(const Netlist& nl, const CellLibrary& lib) {
  SERELIN_REQUIRE(nl.finalized(), "critical_path: netlist not finalized");
  const std::vector<double> arrival = forward_arrivals(nl, lib);
  double worst = 0.0;
  for (NodeId ff : nl.dffs()) worst = std::max(worst, arrival[nl.node(ff).fanins[0]]);
  for (NodeId po : nl.outputs()) worst = std::max(worst, arrival[po]);
  return worst;
}

RetimingOracle::RetimingOracle(const RetimingGraph& g, OracleOptions options)
    : g_(&g), opt_(options) {}

InvariantResult RetimingOracle::check_legality(const Retiming& r,
                                               Verdict& v) const {
  SERELIN_COUNT(kOracleChecks, 1);
  SERELIN_REQUIRE(r.size() == g_->vertex_count(),
                  "oracle: retiming size does not match the graph");
  // Boundary labels first: a moved boundary vertex is a different circuit,
  // not a retiming (the classical host vertex is pinned).
  std::size_t moved_boundary = 0;
  for (VertexId p = 0; p < g_->vertex_count(); ++p) {
    if (g_->movable(p) || r[p] == 0) continue;
    ++moved_boundary;
    v.diagnostics.report(
        {Severity::kError, DiagCode::kOracleLegality, {}, 0, 0,
         "boundary vertex " + std::to_string(p) + " carries r = " +
             std::to_string(r[p]) + " (must stay 0)"});
  }
  // Edge scan: w_r(u,v) = w + r(v) − r(u) ≥ 0 on every edge (paper Eq. 1).
  // The first kOracleMaxDiagnostics findings are stored, in edge order; the
  // detail string carries the exact count.
  std::size_t negative = 0;
  for (EdgeId eid = 0; eid < g_->edge_count(); ++eid) {
    const REdge& e = g_->edge(eid);
    const std::int64_t wr = static_cast<std::int64_t>(e.w) + r[e.to] -
                            r[e.from];
    if (wr >= 0 || ++negative > kOracleMaxDiagnostics) continue;
    v.diagnostics.report(
        {Severity::kError, DiagCode::kOracleLegality, {}, 0, 0,
         "edge " + std::to_string(eid) + " (" + std::to_string(e.from) +
             " -> " + std::to_string(e.to) + "): w_r = " +
             std::to_string(wr) + " < 0 (w = " + std::to_string(e.w) +
             ", r(u) = " + std::to_string(r[e.from]) + ", r(v) = " +
             std::to_string(r[e.to]) + ")"});
  }
  if (moved_boundary == 0 && negative == 0)
    return {Invariant::kLegality, CheckStatus::kPass,
            std::to_string(g_->edge_count()) + " edges with w_r >= 0"};
  return {Invariant::kLegality, CheckStatus::kFail,
          std::to_string(negative) + " negative edge(s), " +
              std::to_string(moved_boundary) + " moved boundary label(s)"};
}

InvariantResult RetimingOracle::check_period(const Netlist& retimed,
                                             Verdict& v) const {
  SERELIN_COUNT(kOracleChecks, 1);
  const double budget = opt_.timing.window_lo();
  const std::vector<double> arrival =
      forward_arrivals(retimed, g_->library());
  std::size_t late = 0;
  double worst = 0.0;
  auto check_endpoint = [&](NodeId at, const std::string& what) {
    worst = std::max(worst, arrival[at]);
    if (arrival[at] <= budget + kEps) return;
    ++late;
    if (v.diagnostics.count(DiagCode::kOraclePeriod) < kOracleMaxDiagnostics)
      v.diagnostics.report(
          {Severity::kError, DiagCode::kOraclePeriod, {}, 0, 0,
           what + ": arrival " + fmt(arrival[at]) + " exceeds phi - Ts = " +
               fmt(budget)});
  };
  for (NodeId ff : retimed.dffs())
    check_endpoint(retimed.node(ff).fanins[0],
                   "register " + retimed.node(ff).name + " D input");
  for (NodeId po : retimed.outputs())
    check_endpoint(po, "primary output " + retimed.node(po).name);
  if (late == 0)
    return {Invariant::kPeriod, CheckStatus::kPass,
            "critical path " + fmt(worst) + " <= " + fmt(budget)};
  return {Invariant::kPeriod, CheckStatus::kFail,
          std::to_string(late) + " late endpoint(s), critical path " +
              fmt(worst) + " > " + fmt(budget)};
}

InvariantResult RetimingOracle::check_elw(const Netlist& retimed,
                                          Verdict& v) const {
  if (!opt_.check_elw)
    return skipped(Invariant::kElw, "not requested for this result");
  if (opt_.rmin <= 0.0)
    return skipped(Invariant::kElw, "R_min <= 0 (constraint vacuous)");
  SERELIN_COUNT(kOracleChecks, 1);
  // Recompute exact windows on the materialized netlist (paper Eq. 3) and
  // check every register-to-logic path: a register on ff feeding gate f
  // latches glitches until right(ELW(f)) − d(f); Theorem 1 equates that
  // with Φ + Th − (shortest downstream path), so the P2' bound
  // "short path ≥ R_min" reads right(ELW(f)) − d(f) ≤ Φ + Th − R_min.
  const CellLibrary& lib = g_->library();
  const ElwResult elw = compute_elw(retimed, lib, opt_.timing);
  const double bound = opt_.timing.window_hi() - opt_.rmin;
  std::size_t violations = 0;
  std::size_t checked = 0;
  auto report = [&](const std::string& msg) {
    ++violations;
    if (v.diagnostics.count(DiagCode::kOracleElw) < kOracleMaxDiagnostics)
      v.diagnostics.report(
          {Severity::kError, DiagCode::kOracleElw, {}, 0, 0, msg});
  };
  for (NodeId ff : retimed.dffs()) {
    const Node& reg = retimed.node(ff);
    if (retimed.is_output(ff)) {
      // Register delivered straight to a primary output: the short path is
      // empty, nothing can absorb a glitch (the checker's sink case).
      report("register " + reg.name +
             " taps a primary output: short path 0 < R_min = " +
             fmt(opt_.rmin));
    }
    for (NodeId fo : reg.fanouts) {
      const Node& f = retimed.node(fo);
      // Chain registers (DFF -> DFF) are the edge-weight representation of
      // one multi-register edge; P2' constrains the edge's head gate only.
      if (!is_gate(f.type)) continue;
      if (elw.elw[fo].empty()) continue;  // dangling cone: nothing latches
      ++checked;
      const double latest = elw.elw[fo].right() - lib.delay(f.type);
      if (latest <= bound + kEps) continue;
      report("register " + reg.name + " -> gate " + f.name +
             ": glitches latch until " + fmt(latest) +
             " > phi + Th - R_min = " + fmt(bound) + " (short path " +
             fmt(opt_.timing.window_hi() - latest) + " < " +
             fmt(opt_.rmin) + ")");
    }
  }
  if (violations == 0)
    return {Invariant::kElw, CheckStatus::kPass,
            std::to_string(checked) + " register-to-logic window(s) within "
                                      "R_min = " +
                fmt(opt_.rmin)};
  return {Invariant::kElw, CheckStatus::kFail,
          std::to_string(violations) + " window violation(s) of R_min = " +
              fmt(opt_.rmin)};
}

InvariantResult RetimingOracle::check_objective(const SolverResult& result,
                                                const Retiming& initial,
                                                const ObsGains& gains,
                                                Verdict& v) const {
  SERELIN_COUNT(kOracleChecks, 1);
  SERELIN_REQUIRE(initial.size() == g_->vertex_count() &&
                      gains.vertex_obs.size() == g_->vertex_count(),
                  "oracle: initial/gains size does not match the graph");
  // Two direct Eq. (5) evaluations; the §VII area term mirrors
  // compute_gains' integer scaling exactly, so the comparison is exact.
  const std::int64_t area_scale =
      std::llround(opt_.area_weight * gains.patterns);
  auto total = [&](const Retiming& r) {
    std::int64_t sum = 0;
    for (EdgeId eid = 0; eid < g_->edge_count(); ++eid) {
      const REdge& e = g_->edge(eid);
      const std::int64_t wr =
          static_cast<std::int64_t>(e.w) + r[e.to] - r[e.from];
      sum += gains.vertex_obs[e.from] * wr + area_scale * wr;
    }
    return sum;
  };
  const std::int64_t recomputed = total(initial) - total(result.r);
  if (recomputed == result.objective_gain)
    return {Invariant::kObjective, CheckStatus::kPass,
            "reported gain " + std::to_string(result.objective_gain) +
                " matches Eq. (5) recomputation"};
  v.diagnostics.report(
      {Severity::kError, DiagCode::kOracleObjective, {}, 0, 0,
       "reported objective gain " + std::to_string(result.objective_gain) +
           " but Eq. (5) recomputation gives " + std::to_string(recomputed)});
  return {Invariant::kObjective, CheckStatus::kFail,
          "reported " + std::to_string(result.objective_gain) +
              " != recomputed " + std::to_string(recomputed)};
}

Verdict RetimingOracle::verify(const Retiming& r) const {
  SERELIN_SPAN("oracle/verify");
  Verdict v;
  v.invariants.reserve(4);
  v.invariants.push_back(check_legality(r, v));
  if (v.invariants.back().status == CheckStatus::kPass) {
    // Materialize once; both structural checks run on the rebuilt netlist,
    // not on solver-side timing labels.
    const Netlist retimed =
        apply_retiming(*g_, r, g_->netlist().name() + "_oracle");
    v.invariants.push_back(check_period(retimed, v));
    v.invariants.push_back(check_elw(retimed, v));
  } else {
    v.invariants.push_back(
        skipped(Invariant::kPeriod, "retiming is illegal"));
    v.invariants.push_back(skipped(Invariant::kElw, "retiming is illegal"));
  }
  v.invariants.push_back(
      skipped(Invariant::kObjective, "no objective claimed"));
  return v;
}

Verdict RetimingOracle::verify(const SolverResult& result,
                               const Retiming& initial,
                               const ObsGains& gains) const {
  Verdict v = verify(result.r);
  v.invariants.back() = check_objective(result, initial, gains, v);
  return v;
}

void RetimingOracle::verify_ser(const Retiming& r, double reported,
                                const SerOptions& options, Verdict& v) const {
  SERELIN_SPAN("oracle/verify-ser");
  SERELIN_COUNT(kOracleChecks, 1);
  InvariantResult* obj = nullptr;
  for (InvariantResult& res : v.invariants)
    if (res.invariant == Invariant::kObjective) obj = &res;
  SERELIN_REQUIRE(obj != nullptr, "verify_ser: verdict has no objective row");
  if (v.result(Invariant::kLegality).status != CheckStatus::kPass) return;
  const Netlist retimed =
      apply_retiming(*g_, r, g_->netlist().name() + "_oracle");
  const SerReport report = analyze_ser(retimed, g_->library(), options);
  const double scale =
      std::max({std::fabs(reported), std::fabs(report.total), 1e-12});
  if (obj->status == CheckStatus::kSkipped) obj->detail.clear();
  if (std::fabs(report.total - reported) <= kSerRelTol * scale) {
    if (obj->status != CheckStatus::kFail) {
      obj->status = CheckStatus::kPass;
      if (!obj->detail.empty()) obj->detail += "; ";
      obj->detail += "SER " + fmt(reported) + " matches Eq. (4) re-analysis";
    }
    return;
  }
  v.diagnostics.report(
      {Severity::kError, DiagCode::kOracleObjective, {}, 0, 0,
       "reported SER " + fmt(reported) + " but Eq. (4) re-analysis gives " +
           fmt(report.total)});
  obj->status = CheckStatus::kFail;
  if (!obj->detail.empty()) obj->detail += "; ";
  obj->detail += "SER mismatch: reported " + fmt(reported) +
                 " != recomputed " + fmt(report.total);
}

}  // namespace serelin
