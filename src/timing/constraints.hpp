// Feasibility predicates P0 / P1' / P2' of the paper's Problem 1, plus the
// violation witnesses that seed active constraints in the MinObsWin solver.
//
//   P0 : every edge keeps a non-negative register count, w_r(u,v) >= 0.
//   P1': setup feasibility — every combinational path fits in Φ − Ts. We
//        check the paper's per-vertex form L(v) >= d(v), equivalently
//        d(v) + max_after(v) <= Φ − Ts, at every non-sink vertex (sources
//        have d = 0, which covers primary-input paths).
//   P2': ELW control — for every registered edge (u,v), the shortest
//        combinational path from the register output to the next boundary,
//        d(v) + min_after(v) (zero when the register feeds a primary output
//        directly), must be at least R_min.
//
// A violation is reported as the paper's active constraint (p, q, w):
// vertex q must decrease its retiming label by w to repair the violation,
// and any further decrease of p re-requires a decrease of q. When q is a
// boundary vertex (source or sink) the violation is unfixable — the solver
// must abandon (block) the tree containing p; this is exactly the paper's
// "no registers can be moved into the host" early exit on b18/b19.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "rgraph/retiming_graph.hpp"
#include "timing/graph_timing.hpp"
#include "timing/params.hpp"

namespace serelin {

enum class ConstraintKind : std::uint8_t { kP0, kP1, kP2 };

struct Violation {
  ConstraintKind kind = ConstraintKind::kP0;
  VertexId p = kNullVertex;  ///< dependency source ("if p drops again...")
  VertexId q = kNullVertex;  ///< vertex that must decrease (may be immovable)
  std::int32_t w = 0;        ///< required decrease of q
  // A P2' short-path violation on a registered edge e = (u, h) admits two
  // monotone fixes: push the boundary register forward (q = boundary head,
  // the default) or drain the launching register off e by decreasing h
  // itself. The alternate is recorded so a solver whose primary choice
  // dead-ended in an immovable chain can re-try the other resolution
  // (see MinObsWinSolver's re-seeded passes); kNullVertex when the
  // violation has a unique fix.
  VertexId alt_q = kNullVertex;  ///< drain-side fix target, if any
  std::int32_t alt_w = 0;        ///< required decrease of alt_q
};

class ConstraintChecker {
 public:
  /// Numeric slack used when comparing path delays.
  static constexpr double kEps = 1e-9;

  ConstraintChecker(const RetimingGraph& g, TimingParams params, double rmin);

  double rmin() const { return rmin_; }
  const TimingParams& params() const { return params_; }

  /// Scans for one violation under retiming `r`; `t` must hold labels
  /// computed for `r`. Returns nullopt when r is feasible. P0 is checked
  /// first (negative register counts make path labels meaningless), then
  /// P2', then P1'.
  ///
  /// `movers`, when non-empty (size |V|, nonzero = vertex moved in the
  /// current tentative step), filters the dependency source: the returned
  /// violation's p is a mover whenever any attribution of the violation to
  /// a mover exists. Under the solver's invariant (the pre-move retiming
  /// was feasible) every violation is attributable: a combinational path
  /// always terminates at a mover's out-edge (movers add registers to all
  /// their out-edges), a fresh register edge has a mover tail, and a
  /// shortened short path has a mover as its rt() witness.
  std::optional<Violation> find_violation(
      const Retiming& r, const GraphTiming& t,
      std::span<const char> movers = {}) const;

  /// Batch form: collects every P2'/P1' violation with pairwise distinct
  /// q (the first per q, in scan order), so a solver can fold all the
  /// active constraints of one tentative move into the forest per timing
  /// recomputation (one move typically breaks several constraints at
  /// once; processing them one-per-recompute would cost a relabel each).
  /// Requires a P0-valid `r` (g.valid(r)) and does not scan P0: path
  /// labels are meaningless beside negative edge weights, so a batching
  /// solver closes P0 before it probes (see MinObsWinSolver).
  std::vector<Violation> find_violations(const Retiming& r,
                                         const GraphTiming& t,
                                         std::span<const char> movers) const;

  /// Dirty-set batch form: scans only the edges/vertices named by `delta`
  /// (a GraphTiming::update result) instead of the whole graph. Requires
  /// the solver invariant that the previously labeled retiming was
  /// violation-free: then every current violation involves a w_r-changed
  /// edge or a relabeled vertex, and because candidates are scanned in the
  /// same ascending order as the full scan, the returned batch (including
  /// the mover-attribution fallback) is identical to the full-scan batch.
  /// Requires a P0-valid `r` like the full form (GraphTiming::update
  /// enforces it); delta.full falls back to the full scan.
  std::vector<Violation> find_violations(const Retiming& r,
                                         const GraphTiming& t,
                                         const TimingDelta& delta,
                                         std::span<const char> movers) const;

  /// Convenience: recomputes `t` for `r` and checks all three.
  bool feasible(const Retiming& r, GraphTiming& t) const;

 private:
  /// The violation of each predicate at one edge or vertex, if any.
  std::optional<Violation> p0_at(const Retiming& r, EdgeId e) const;
  std::optional<Violation> p2_at(const Retiming& r, const GraphTiming& t,
                                 EdgeId e, std::span<const char> movers) const;
  std::optional<Violation> p1_at(const GraphTiming& t, VertexId v) const;

  /// The batch scan behind both find_violations forms: P2' over
  /// `p2_edges`, then P1' over `p1_vertices`, each list in ascending order.
  template <class Ids>
  std::vector<Violation> scan(const Retiming& r, const GraphTiming& t,
                              const Ids& p2_edges, const Ids& p1_vertices,
                              std::span<const char> movers) const;

  const RetimingGraph* g_;
  TimingParams params_;
  double rmin_;
};

}  // namespace serelin
