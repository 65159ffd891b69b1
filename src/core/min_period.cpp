#include "core/min_period.hpp"

#include <algorithm>

#include "support/metrics.hpp"
#include "support/trace.hpp"
#include "timing/graph_timing.hpp"

namespace serelin {

namespace {

/// Binary-search resolution on the period.
constexpr double kPeriodTolerance = 1e-3;

}  // namespace

MinPeriodRetimer::MinPeriodRetimer(const RetimingGraph& g, Options options)
    : g_(&g), opt_(options) {}

std::optional<Retiming> MinPeriodRetimer::retime_for_period(
    double phi, const Retiming& start) const {
  const double budget = phi - opt_.setup;
  Retiming r = start;
  GraphTiming timing(*g_, TimingParams{phi, opt_.setup, 0.0});
  const int passes =
      opt_.max_passes > 0 ? opt_.max_passes
                          : static_cast<int>(g_->vertex_count());
  std::vector<char> moves(g_->vertex_count(), 0);
  for (int pass = 0; pass < passes; ++pass) {
    SERELIN_COUNT(kFeasPasses, 1);
    // An interrupted probe reports "not feasible for phi" — conservative
    // and safe; minimize() notices the expiry itself and stops cleanly.
    if (opt_.deadline.expired()) return std::nullopt;
    // r stays valid throughout, as compute requires, thanks to the
    // demotion closure below.
    timing.compute(r);
    bool violated = false;
    // Candidate moves: violated movable vertices.
    for (VertexId v = 0; v < g_->vertex_count(); ++v) {
      const bool over = timing.arrival(v) > budget + 1e-9;
      violated |= over;
      moves[v] = over && g_->movable(v);
    }
    if (!violated) return r;
    // Backward-retiming v removes a register from every out-edge, so a
    // register-free out-edge is only safe if its head moves too. Demote
    // candidates until that closure holds (upstream increments may still
    // relieve the demoted vertices on a later pass).
    bool changed = true;
    while (changed) {
      // The closure is Θ(|V|·|E|) worst case per probe — long enough on
      // big circuits that cancellation must be able to land between
      // sweeps, not just between passes.
      if (opt_.deadline.expired()) return std::nullopt;
      changed = false;
      for (VertexId v = 0; v < g_->vertex_count(); ++v) {
        if (!moves[v]) continue;
        for (EdgeId eid : g_->out_edges(v)) {
          if (g_->wr(eid, r) == 0 && !moves[g_->edge(eid).to]) {
            moves[v] = 0;
            changed = true;
            break;
          }
        }
      }
    }
    bool any = false;
    for (VertexId v = 0; v < g_->vertex_count(); ++v) {
      if (!moves[v]) continue;
      ++r[v];
      any = true;
    }
    if (!any) return std::nullopt;
  }
  return std::nullopt;
}

MinPeriodRetimer::Result MinPeriodRetimer::minimize() const {
  SERELIN_SPAN("solver/minperiod");
  // Upper bound: the unretimed critical path (r = 0 always achieves it).
  GraphTiming timing(*g_, TimingParams{0.0, opt_.setup, 0.0});
  const Retiming zero = g_->zero_retiming();
  timing.compute(zero);
  double hi = opt_.setup;
  double lo = 0.0;
  for (VertexId v = 0; v < g_->vertex_count(); ++v) {
    hi = std::max(hi, timing.arrival(v) + opt_.setup);
    lo = std::max(lo, g_->vertex(v).delay + opt_.setup);
  }
  Result best{hi, zero, StopReason::kNone, {}};
  if (auto r = retime_for_period(hi, zero)) best.r = std::move(*r);
  for (;;) {
    // Checked before the convergence test: an already-expired deadline
    // must surface as a Partial result even when the search interval is
    // degenerate (the upper-bound probe above was interrupted too).
    if (const StopReason sr = opt_.deadline.status();
        sr != StopReason::kNone) {
      best.stop_reason = sr;  // best-so-far: r achieves best.period
      best.stop_detail = std::string(stop_reason_name(sr)) +
                         " during min-period binary search; best feasible "
                         "period " +
                         std::to_string(best.period);
      return best;
    }
    if (hi - lo <= kPeriodTolerance) return best;
    const double mid = 0.5 * (lo + hi);
    if (auto r = retime_for_period(mid, zero)) {
      hi = mid;
      best = Result{mid, std::move(*r), StopReason::kNone, {}};
    } else {
      lo = mid;
    }
  }
}

}  // namespace serelin
