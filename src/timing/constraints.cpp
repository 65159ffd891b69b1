#include "timing/constraints.hpp"

#include <algorithm>
#include <ranges>

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

/// Ids 0..n-1 ascending: the full scan's candidate list.
auto all_ids(std::size_t n) {
  return std::views::iota(std::uint32_t{0}, static_cast<std::uint32_t>(n));
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
  for (const EdgeId e : all_ids(g_->edge_count()))
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
    for (const EdgeId e : all_ids(g_->edge_count()))
      if (auto v = p2_at(r, t, e, movers); attributed(v)) return v;
  if (fallback) return fallback;
  for (const VertexId v : all_ids(g_->vertex_count()))
    if (auto viol = p1_at(t, v); attributed(viol)) return viol;
  return fallback;
}

template <class Ids>
std::vector<Violation> ConstraintChecker::scan(
    const Retiming& r, const GraphTiming& t, const Ids& p2_edges,
    const Ids& p1_vertices, std::span<const char> movers) const {
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
    for (const EdgeId e : p2_edges) offer(p2_at(r, t, e, movers));
  for (const VertexId v : p1_vertices) offer(p1_at(t, v));
  if (out.empty() && fallback) out.push_back(*fallback);
  return out;
}

std::vector<Violation> ConstraintChecker::find_violations(
    const Retiming& r, const GraphTiming& t,
    std::span<const char> movers) const {
  return scan(r, t, all_ids(g_->edge_count()), all_ids(g_->vertex_count()),
              movers);
}

std::vector<Violation> ConstraintChecker::find_violations(
    const Retiming& r, const GraphTiming& t, const TimingDelta& delta,
    std::span<const char> movers) const {
  if (delta.full) return find_violations(r, t, movers);
  // P2' candidates: a fresh violation needs a changed register count or a
  // changed head label (min_after / crit_min_edge / rt of e.to), so the
  // union of wr_changed and the in-edges of relabeled vertices covers
  // every violating edge. Sorted ascending to mirror the full scan.
  std::vector<EdgeId> edges;
  if (rmin_ > 0.0) {
    edges = delta.wr_changed;
    for (VertexId v : delta.relabeled)
      edges.insert(edges.end(), g_->in_edges(v).begin(),
                   g_->in_edges(v).end());
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  }
  // P1' candidates: a fresh violation needs a changed max_after, so the
  // relabeled set (already ascending) covers every violating vertex.
  return scan<std::span<const EdgeId>>(r, t, edges, delta.relabeled, movers);
}

bool ConstraintChecker::feasible(const Retiming& r, GraphTiming& t) const {
  if (!g_->valid(r)) return false;  // includes P0 and pinned boundary labels
  t.compute(r);
  return !find_violation(r, t).has_value();
}

}  // namespace serelin
