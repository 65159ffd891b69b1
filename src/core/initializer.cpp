#include "core/initializer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/min_period.hpp"
#include "support/check.hpp"
#include "timing/constraints.hpp"
#include "timing/graph_timing.hpp"

namespace serelin {

double min_short_path(const RetimingGraph& g, const Retiming& r,
                      const TimingParams& params) {
  GraphTiming timing(g, params);
  timing.compute(r);
  double shortest = std::numeric_limits<double>::infinity();
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    if (g.wr(e, r) <= 0) continue;
    const RVertex& head = g.vertex(g.edge(e).to);
    const double path = head.kind == VertexKind::kSink
                            ? 0.0
                            : head.delay + timing.min_after(g.edge(e).to);
    shortest = std::min(shortest, path);
  }
  return shortest;
}

namespace {

/// Greedy hold repair: while some registered edge's short path is below
/// `hold`, apply the P2'-style fix (move the boundary registers of the
/// critical short path forward), following up the induced P0/P1 fixes.
/// Returns true if a feasible retiming was reached; `r` is updated in
/// place only on success.
bool repair_hold(const RetimingGraph& g, Retiming& r,
                 const TimingParams& params) {
  ConstraintChecker checker(g, params, params.hold);
  GraphTiming timing(g, params);
  Retiming cand = r;
  const std::int64_t budget =
      8 * static_cast<std::int64_t>(g.vertex_count()) + 256;
  for (std::int64_t step = 0; step < budget; ++step) {
    if (!g.valid(cand)) return false;
    timing.compute(cand);
    const auto v = checker.find_violation(cand, timing);
    if (!v) {
      r = cand;
      return true;
    }
    if (!g.movable(v->q)) return false;  // would push into the boundary
    cand[v->q] -= v->w;
  }
  return false;
}

}  // namespace

InitResult initialize_retiming(const RetimingGraph& g,
                               const InitOptions& options) {
  MinPeriodRetimer::Options mp;
  mp.setup = options.setup;
  mp.max_passes = options.feas_passes;
  mp.deadline = options.deadline;
  MinPeriodRetimer retimer(g, mp);
  const auto min_result = retimer.minimize();

  InitResult out;
  out.min_period = min_result.period;
  double phi = min_result.period * (1.0 + options.epsilon);
  if (options.integer_period) phi = std::ceil(phi - 1e-9);
  out.timing = TimingParams{phi, options.setup, options.hold};

  // Re-retime for the relaxed period (more slack for the optimizer).
  Retiming r = g.zero_retiming();
  if (auto relaxed = retimer.retime_for_period(phi, r))
    r = std::move(*relaxed);
  else
    r = min_result.r;

  // Try to reach a setup/hold-feasible start (the paper's [23] step).
  out.setup_hold_ok = repair_hold(g, r, out.timing);
  out.r = std::move(r);

  if (out.setup_hold_ok) {
    // Section V: R_min = the minimal short path of the initial circuit.
    out.rmin = min_short_path(g, out.r, out.timing);
    if (!std::isfinite(out.rmin)) out.rmin = 0.0;  // no registers at all
  } else {
    // Paper fallback (s15850.1): R_min = the minimal gate delay, but never
    // above what the initial circuit already violates — P2' must hold at
    // the start, otherwise the solver exits immediately (b18/b19 rows).
    double min_gate_delay = std::numeric_limits<double>::infinity();
    for (VertexId v : g.gate_vertices())
      min_gate_delay = std::min(min_gate_delay, g.vertex(v).delay);
    out.rmin = std::isfinite(min_gate_delay) ? min_gate_delay : 0.0;
  }
  return out;
}

}  // namespace serelin
