#include "check/wd_matrices.hpp"

#include <algorithm>
#include <queue>

#include "support/check.hpp"
#include "support/metrics.hpp"
#include "support/parallel.hpp"
#include "support/trace.hpp"

namespace serelin {

namespace {

/// Per-worker scratch for the per-source Dijkstra + tight-DAG DP. The
/// result rows are written straight into the matrices (each source owns a
/// disjoint slice), so only the traversal state lives here.
struct WdScratch {
  std::vector<std::uint32_t> tight_pending;
  std::vector<VertexId> order;
  using Item = std::pair<std::int32_t, VertexId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;

  void prepare(std::size_t n) {
    if (tight_pending.size() != n) {
      tight_pending.assign(n, 0);
      order.reserve(n);
    }
  }
};

/// One difference constraint r(u) − r(v) ≤ cost (edge v → u of weight
/// cost in the shortest-path encoding).
struct WdConstraint {
  VertexId from;  ///< v of "r(u) − r(v) ≤ cost"
  VertexId to;    ///< u
  std::int64_t cost;
};

/// Bellman–Ford over P0 + P1 + boundary-pinning difference constraints,
/// nullopt on a negative cycle (period infeasible). `extra` carries the P1
/// pair constraints; P0 and root pinning are derived from the graph.
std::optional<Retiming> wd_solve_constraints(
    const RetimingGraph& g, const std::vector<WdConstraint>& extra) {
  const std::size_t n = g.vertex_count();

  // Difference constraints r(u) − r(v) ≤ c become edges v → u of weight c
  // in the shortest-path encoding. Bellman–Ford starts from all-zero
  // distances (an implicit super-source, which cannot lie on a cycle), so
  // no blanket root→v edges are needed — they would wrongly cap every
  // label at the root's, excluding the positive labels backward moves
  // need. A virtual root (index n) only *pins* the boundary labels
  // together; the final labels are normalized against it.
  std::vector<WdConstraint> edges;
  edges.reserve(g.edge_count() + 2 * n + extra.size());
  const VertexId root = static_cast<VertexId>(n);
  for (VertexId v = 0; v < n; ++v) {
    if (!g.movable(v)) {
      edges.push_back({root, v, 0});
      edges.push_back({v, root, 0});
    }
  }
  for (EdgeId eid = 0; eid < g.edge_count(); ++eid) {
    const REdge& e = g.edge(eid);
    edges.push_back({e.to, e.from, e.w});  // P0: r(u) − r(v) ≤ w(e)
  }
  edges.insert(edges.end(), extra.begin(), extra.end());

  // Bellman–Ford; a negative cycle means the period is infeasible. Each
  // successful relaxation is one pivot of the difference-constraint LP.
  std::vector<std::int64_t> dist(n + 1, 0);
  std::int64_t relaxations = 0;
  bool changed = true;
  for (std::size_t round = 0; round <= n + 1 && changed; ++round) {
    changed = false;
    for (const WdConstraint& e : edges) {
      if (dist[e.from] + e.cost < dist[e.to]) {
        dist[e.to] = dist[e.from] + e.cost;
        ++relaxations;
        changed = true;
      }
    }
  }
  SERELIN_COUNT(kLpRelaxations, relaxations);
  if (changed) return std::nullopt;  // still relaxing: negative cycle

  Retiming r(n, 0);
  for (VertexId v = 0; v < n; ++v)
    r[v] = static_cast<std::int32_t>(dist[v] - dist[root]);
  SERELIN_ASSERT(g.valid(r), "W/D feasibility produced an invalid retiming");
  return r;
}

}  // namespace

WdMatrices::WdMatrices(const RetimingGraph& g, Deadline deadline)
    : n_(g.vertex_count()) {
  SERELIN_SPAN("wd/construct");
  w_.assign(n_ * n_, kUnreachable);
  d_.assign(n_ * n_, 0.0);

  // One independent single-source computation per vertex; source s writes
  // only its own row slices w_[s·n .. (s+1)·n) and d_[..], so results are
  // bit-identical for any thread count. The deadline-aware overload checks
  // once per source (each source is a full Dijkstra + DP, plenty coarse)
  // and rethrows CancelledError on the caller.
  std::vector<WdScratch> scratch(
      static_cast<std::size_t>(parallel_workers()));
  const std::size_t grain =
      std::max<std::size_t>(1, n_ / (static_cast<std::size_t>(
                                         parallel_workers()) *
                                     8));
  parallel_for(0, n_, grain, deadline, "WdMatrices", [&](std::size_t src,
                                                         int lane) {
    const VertexId s = static_cast<VertexId>(src);
    SERELIN_COUNT(kWdSources, 1);
    WdScratch& sc = scratch[static_cast<std::size_t>(lane)];
    sc.prepare(n_);
    std::int32_t* wrow = w_.data() + src * n_;
    double* drow = d_.data() + src * n_;

    // Dijkstra on register counts from s (wrow is pre-filled with
    // kUnreachable by the assign above).
    wrow[s] = 0;
    auto& heap = sc.heap;
    heap.emplace(0, s);
    while (!heap.empty()) {
      const auto [wu, u] = heap.top();
      heap.pop();
      SERELIN_COUNT(kWdHeapPops, 1);
      if (wu != wrow[u]) continue;
      for (EdgeId eid : g.out_edges(u)) {
        const REdge& e = g.edge(eid);
        const std::int32_t cand = wu + e.w;
        if (cand < wrow[e.to]) {
          wrow[e.to] = cand;
          heap.emplace(cand, e.to);
        }
      }
    }

    // Longest total delay over register-minimal paths: DP in topological
    // order of the tight-edge DAG (tight = the edge lies on some
    // register-minimal path; a tight cycle would be a register-free cycle,
    // which legal graphs exclude).
    auto tight = [&](const REdge& e) {
      return wrow[e.from] != kUnreachable && wrow[e.to] == wrow[e.from] + e.w;
    };
    std::fill(sc.tight_pending.begin(), sc.tight_pending.end(), 0);
    for (EdgeId eid = 0; eid < g.edge_count(); ++eid)
      if (tight(g.edge(eid))) ++sc.tight_pending[g.edge(eid).to];
    sc.order.clear();
    for (VertexId v = 0; v < n_; ++v)
      if (wrow[v] != kUnreachable && sc.tight_pending[v] == 0)
        sc.order.push_back(v);
    drow[s] = g.vertex(s).delay;
    for (std::size_t head = 0; head < sc.order.size(); ++head) {
      const VertexId u = sc.order[head];
      for (EdgeId eid : g.out_edges(u)) {
        const REdge& e = g.edge(eid);
        if (!tight(e)) continue;
        drow[e.to] =
            std::max(drow[e.to], drow[u] + g.vertex(e.to).delay);
        if (--sc.tight_pending[e.to] == 0) sc.order.push_back(e.to);
      }
    }
  });
}

std::vector<double> WdMatrices::candidate_periods() const {
  // Every reachable pair contributes a D value (n² of them on dense
  // graphs), so count first and reserve exactly instead of guessing.
  std::size_t reachable = 0;
  for (std::size_t i = 0; i < w_.size(); ++i)
    if (w_[i] != kUnreachable) ++reachable;
  std::vector<double> out;
  out.reserve(reachable);
  for (std::size_t i = 0; i < w_.size(); ++i)
    if (w_[i] != kUnreachable) out.push_back(d_[i]);
  std::sort(out.begin(), out.end());
  // Tolerance-aware dedup: delays are sums of doubles, so equal-period
  // candidates can differ in the last ulps depending on summation path;
  // exact std::unique would keep both and bloat the binary search.
  constexpr double kTol = 1e-9;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (kept == 0 || out[i] > out[kept - 1] + kTol) out[kept++] = out[i];
  }
  out.resize(kept);
  return out;
}

std::optional<Retiming> wd_retime_for_period(const RetimingGraph& g,
                                             const WdMatrices& wd,
                                             double phi, double setup) {
  const std::size_t n = g.vertex_count();
  SERELIN_REQUIRE(wd.size() == n, "W/D matrices do not match the graph");
  const double budget = phi - setup;

  // P1 pair constraints r(u) − r(v) ≤ W(u,v) − 1 for every reachable pair
  // whose register-minimal delay exceeds the budget; P0 and root pinning
  // are derived from the graph inside the solver.
  std::vector<WdConstraint> extra;
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = 0; v < n; ++v) {
      if (wd.w(u, v) == WdMatrices::kUnreachable) continue;
      if (wd.d(u, v) <= budget + 1e-9) continue;
      extra.push_back({v, u, wd.w(u, v) - 1});
    }
  }
  return wd_solve_constraints(g, extra);
}

WdMinPeriodResult wd_min_period(const RetimingGraph& g, const WdMatrices& wd,
                                double setup, Deadline deadline) {
  SERELIN_SPAN("wd/min-period");
  const std::vector<double> budgets = wd.candidate_periods();
  SERELIN_REQUIRE(!budgets.empty(), "graph without paths");
  // Binary search the smallest feasible candidate (feasibility is monotone
  // in the period). The best feasible probe is kept as it is found, so an
  // expired deadline can stop the search at any point with a legal
  // (if not yet minimal) result in hand.
  std::size_t lo = 0, hi = budgets.size() - 1;
  auto first = wd_retime_for_period(g, wd, budgets[hi] + setup, setup);
  SERELIN_REQUIRE(first.has_value(),
                  "even the critical path period is infeasible");
  WdMinPeriodResult out;
  out.period = budgets[hi] + setup;
  out.r = std::move(*first);
  while (lo < hi) {
    if (const StopReason sr = deadline.status(); sr != StopReason::kNone) {
      out.stop_reason = sr;
      out.stop_detail = std::string(stop_reason_name(sr)) +
                        " during dense candidate binary search; best "
                        "feasible period " +
                        std::to_string(out.period);
      return out;
    }
    const std::size_t mid = (lo + hi) / 2;
    if (auto r = wd_retime_for_period(g, wd, budgets[mid] + setup, setup)) {
      hi = mid;
      out.period = budgets[mid] + setup;
      out.r = std::move(*r);
    } else {
      lo = mid + 1;
    }
  }
  return out;
}

}  // namespace serelin
