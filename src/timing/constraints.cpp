#include "timing/constraints.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace serelin {

namespace {
inline bool allowed(std::span<const char> movers, VertexId p) {
  return movers.empty() || movers[p];
}

// Records the drain-side resolution of a P2' violation on registered edge
// `launch` = (u, h): decreasing h by wr(launch) carries the launching
// register forward through h instead of pushing the boundary register.
inline void attach_drain_alt(const RetimingGraph& g, const Retiming& r,
                             EdgeId launch, Violation& v) {
  const VertexId h = g.edge(launch).to;
  if (h == v.q || !g.movable(h)) return;
  v.alt_q = h;
  v.alt_w = std::max(g.wr(launch, r), 1);
}
}  // namespace

ConstraintChecker::ConstraintChecker(const RetimingGraph& g,
                                     TimingParams params, double rmin)
    : g_(&g), params_(params), rmin_(rmin) {}

std::optional<Violation> ConstraintChecker::p0_at(const Retiming& r,
                                                  EdgeId eid) const {
  const std::int32_t w = g_->wr(eid, r);
  if (w >= 0) return std::nullopt;
  const REdge& e = g_->edge(eid);
  // Only the head's decrease can drain an edge, so e.to is the mover.
  return Violation{ConstraintKind::kP0, e.to, e.from, -w};
}

std::optional<Violation> ConstraintChecker::p2_at(
    const Retiming& r, const GraphTiming& t, EdgeId eid,
    std::span<const char> movers) const {
  if (g_->wr(eid, r) <= 0) return std::nullopt;
  const REdge& e = g_->edge(eid);
  const RVertex& head = g_->vertex(e.to);
  if (head.kind == VertexKind::kSink) {
    // A register delivered directly to a primary output: the short path
    // is empty and nothing downstream can absorb it. Unfixable — the
    // driver's tree must be blocked (the paper's host early exit).
    if (rmin_ <= kEps) return std::nullopt;
    return Violation{ConstraintKind::kP2, e.from, e.to, 1};
  }
  const double short_path = head.delay + t.min_after(e.to);
  if (short_path + kEps >= rmin_) return std::nullopt;
  // Critical short path e.to ~> z with boundary edge (z, y): move the
  // registers on (z, y) forward past y (paper Fig. 2(c)). The dependency
  // source is the tail whose move delivered this register edge, or the
  // rt() witness whose move planted the closer boundary.
  const EdgeId boundary = t.crit_min_edge(e.to);
  if (boundary == kNullEdge) return std::nullopt;  // dangling cone
  VertexId p = e.from;
  if (!allowed(movers, p) && allowed(movers, t.rt(e.to))) p = t.rt(e.to);
  Violation v{ConstraintKind::kP2, p, g_->edge(boundary).to,
              std::max(g_->wr(boundary, r), 1)};
  attach_drain_alt(*g_, r, eid, v);
  return v;
}

std::optional<Violation> ConstraintChecker::p1_at(const GraphTiming& t,
                                                  VertexId v) const {
  if (g_->vertex(v).kind == VertexKind::kSink) return std::nullopt;
  const double longest = g_->vertex(v).delay + t.max_after(v);
  if (longest <= params_.window_lo() + kEps) return std::nullopt;
  // A too-long path ends at lt(v), whose out-edge holds the register
  // that must be pulled back in front of v (paper Fig. 2(b)).
  return Violation{ConstraintKind::kP1, t.lt(v), v, 1};
}

std::optional<Violation> ConstraintChecker::find_violation(
    const Retiming& r, const GraphTiming& t,
    std::span<const char> movers) const {
  // P0 first: with a negative edge weight the timing labels are
  // meaningless (the paper's order P2/P0/P1 presumes P0 holds during the
  // timing query).
  for (EdgeId e = 0; e < g_->edge_count(); ++e)
    if (auto v = p0_at(r, e)) return v;
  // Then the first attributed P2', else the first P2' at all, then the
  // same for P1'.
  std::optional<Violation> fallback;
  const auto attributed = [&](const std::optional<Violation>& v) {
    if (!v) return false;
    if (allowed(movers, v->p)) return true;
    if (!fallback) fallback = v;
    return false;
  };
  if (rmin_ > 0.0)
    for (EdgeId e = 0; e < g_->edge_count(); ++e)
      if (auto v = p2_at(r, t, e, movers); attributed(v)) return v;
  if (fallback) return fallback;
  for (VertexId v = 0; v < g_->vertex_count(); ++v)
    if (auto viol = p1_at(t, v); attributed(viol)) return viol;
  return fallback;
}

std::vector<Violation> ConstraintChecker::find_violations(
    const Retiming& r, const GraphTiming& t,
    std::span<const char> movers) const {
  std::vector<Violation> out;
  std::vector<char> taken(g_->vertex_count(), 0);
  const auto push = [&](const Violation& v) {
    if (taken[v.q]) return;
    taken[v.q] = 1;
    out.push_back(v);
  };
  // Unattributed violations are kept only as a fallback for an empty batch.
  std::optional<Violation> fallback;
  const auto offer = [&](const std::optional<Violation>& v) {
    if (!v) return;
    if (allowed(movers, v->p)) push(*v);
    else if (!fallback) fallback = v;
  };

  if (rmin_ > 0.0)
    for (EdgeId e = 0; e < g_->edge_count(); ++e)
      offer(p2_at(r, t, e, movers));
  for (VertexId v = 0; v < g_->vertex_count(); ++v) offer(p1_at(t, v));
  if (out.empty() && fallback) out.push_back(*fallback);
  return out;
}

bool ConstraintChecker::feasible(const Retiming& r, GraphTiming& t) const {
  if (!g_->valid(r)) return false;  // includes P0 and pinned boundary labels
  t.compute(r);
  return !find_violation(r, t).has_value();
}

}  // namespace serelin
