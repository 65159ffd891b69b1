#include "core/solver.hpp"

#include <optional>
#include <string>
#include <vector>

#include "core/regular_forest.hpp"
#include "support/check.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"
#include "timing/constraints.hpp"
#include "timing/graph_timing.hpp"

namespace serelin {

MinObsWinSolver::MinObsWinSolver(const RetimingGraph& g, const ObsGains& gains,
                                 SolverOptions options)
    : g_(&g), gains_(&gains), opt_(options) {
  SERELIN_REQUIRE(gains.gain.size() == g.vertex_count(),
                  "gains must be indexed by VertexId");
}

/// Folds every P0 implication of the positive set into `forest` (step 1 in
/// solver.hpp). Moving V_P(F) drains in-edge e = (u, v) of a mover v iff
/// w(v) − w_r(e) exceeds what u moves alongside; the fold is the active
/// constraint (v, u, w(v) − w_r(e)), the one the probe's P0 scan would
/// report. Each round walks a fresh positive set, marked in the all-zero
/// `marked` scratch (cleared again before returning), and appends every
/// vertex a fold pulls into a positive tree. A mark that goes stale within
/// a round only delays a fold to the next round, never changes its weight.
///
/// Returns the positive set of the round that folds nothing — the probe's
/// candidate set — or nullopt when the deadline expired between rounds.
/// `r` is never written, so run_pass's top-of-loop check then stops at a
/// feasible state.
std::optional<std::vector<VertexId>> MinObsWinSolver::close_p0(
    const Retiming& r, RegularForest& forest, std::vector<char>& marked,
    std::int64_t cap) const {
  std::string trail;  // recent folds, reported on budget exhaustion
  std::int64_t rounds = 0;
  for (;;) {
    if (opt_.deadline.expired()) return std::nullopt;
    SERELIN_ASSERT(rounds < cap,
                   "MinObsWin P0 closure budget exhausted (livelock?); "
                   "recent constraints: " +
                       trail);
    ++rounds;
    SERELIN_COUNT(kSolverP0Rounds, 1);
    std::vector<VertexId> work = forest.positive_set();
    for (const VertexId v : work) marked[v] = 1;
    std::int64_t folds = 0;
    for (std::size_t i = 0; i < work.size(); ++i) {
      const VertexId v = work[i];
      if (!forest.in_positive_tree(v)) continue;
      for (const EdgeId e : g_->in_edges(v)) {
        const VertexId u = g_->edge(e).from;
        const std::int32_t need = forest.weight(v) - g_->wr(e, r);
        if (need <= (marked[u] ? forest.weight(u) : 0)) continue;
        if (rounds + 64 >= cap && folds == 0) {
          trail += " [p" + std::to_string(v) + ",q" + std::to_string(u) +
                   ",w" + std::to_string(need) + "]";
        }
        forest.add_constraint(v, u, need);
        ++folds;
        if (!marked[u] && forest.in_positive_tree(u)) {
          marked[u] = 1;
          work.push_back(u);
        }
        if (!forest.in_positive_tree(v)) break;
      }
    }
    for (const VertexId v : work) marked[v] = 0;
    SERELIN_COUNT(kSolverP0Folds, folds);
    if (folds == 0) return work;
  }
}

/// One run of the Algorithm-1 loop over a fresh `forest`; returns the
/// pass's commit count. r, gain and iteration counters accumulate in `out`.
///
/// `avoid_q` (size |V|, may be empty) marks fix targets that a previous
/// pass proved to dead-end in a blocked tree; when a P2' violation's
/// primary q is marked and the violation carries a drain alternate that is
/// not, the alternate is folded instead. `frozen` is filled with the
/// vertices of blocked trees at convergence — the dead-end evidence the
/// next re-seeded pass learns from.
int MinObsWinSolver::run_pass(const ConstraintChecker& checker,
                              GraphTiming& timing, SolverResult& out,
                              const std::vector<char>& avoid_q,
                              std::vector<char>& frozen,
                              RegularForest& forest) const {
  // Livelock safety budget on timing probes (and on closure rounds).
  const std::int64_t cap =
      4096 + 64 * static_cast<std::int64_t>(g_->vertex_count());
  int pass_commits = 0;

  std::vector<char> movers(g_->vertex_count(), 0);
  std::string trail;  // recent violations, reported on budget exhaustion
  for (;;) {
    // Deadline checkpoint: here out.r is feasible (the initial retiming,
    // or the state after the last commit/revert), so stopping now yields
    // a legal best-so-far result.
    if (const StopReason sr = opt_.deadline.status();
        sr != StopReason::kNone) {
      out.stop_reason = sr;
      out.stop_detail = std::string(stop_reason_name(sr)) +
                        " during MinObsWin after " +
                        std::to_string(out.commits) +
                        " commit(s); returning best feasible retiming";
      break;
    }
    const std::optional<std::vector<VertexId>> closed =
        close_p0(out.r, forest, movers, cap);
    if (!closed) continue;  // deadline hit mid-closure: stop just above
    const std::vector<VertexId>& candidate = *closed;
    if (candidate.empty()) break;  // no improving closed set remains
    SERELIN_ASSERT(out.iterations < cap,
                   "MinObsWin iteration budget exhausted (livelock?); "
                   "recent constraints: " +
                       trail);
    ++out.iterations;
    SERELIN_COUNT(kSolverIterations, 1);

    // Tentative move: r(v) -= w(v) for the whole positive set.
    for (VertexId v : candidate) {
      out.r[v] -= forest.weight(v);
      movers[v] = 1;
    }
    // Relabel and scan the whole graph. The move is P0-closed, so
    // compute's validity precondition holds; after the closure a solve
    // probes only a handful of times, so the full pass and scan cost
    // nothing measurable.
    timing.compute(out.r);
    const auto viols = checker.find_violations(out.r, timing, movers);

    if (viols.empty()) {
      // Feasible: commit. The positive set has positive weighted gain by
      // construction, so the objective strictly improves.
      for (VertexId v : candidate) {
        out.objective_gain += forest.gain(v) * forest.weight(v);
        movers[v] = 0;
      }
      ++pass_commits;
      ++out.commits;
      SERELIN_COUNT(kSolverCommits, 1);
      continue;
    }

    // Resolve each violation to the fix target a re-seeded pass should
    // use: the drain alternate when the primary q is a known dead end.
    std::vector<VertexId> fix_q(viols.size());
    std::vector<std::int32_t> fix_w(viols.size());
    for (std::size_t i = 0; i < viols.size(); ++i) {
      const Violation& viol = viols[i];
      const bool swap = !avoid_q.empty() && avoid_q[viol.q] &&
                        viol.alt_q != kNullVertex && !avoid_q[viol.alt_q];
      fix_q[i] = swap ? viol.alt_q : viol.q;
      fix_w[i] = swap ? viol.alt_w : viol.w;
    }
    // Record which q's moved before reverting, then fold every active
    // constraint into the forest. Later entries may be staled by earlier
    // ones (their p cancelled); those are skipped.
    std::vector<char> q_moved(viols.size());
    for (std::size_t i = 0; i < viols.size(); ++i)
      q_moved[i] = movers[fix_q[i]];
    // The labels stay at the rejected move; the next probe relabels
    // before it reads them.
    for (VertexId v : candidate) {
      out.r[v] += forest.weight(v);
      movers[v] = 0;
    }
    for (std::size_t i = 0; i < viols.size(); ++i) {
      const Violation& viol = viols[i];
      if (i > 0 && !forest.in_positive_tree(viol.p)) continue;  // stale
      const std::int32_t needed =
          fix_w[i] + (q_moved[i] ? forest.weight(fix_q[i]) : 0);
      if (out.iterations + 64 >= cap && i == 0) {
        trail += " [" + std::to_string(static_cast<int>(viol.kind)) + ":p" +
                 std::to_string(viol.p) + ",q" + std::to_string(fix_q[i]) +
                 ",w" + std::to_string(needed) + "]";
      }
      forest.add_constraint(viol.p, fix_q[i], needed);
    }
  }
  // Dead-end evidence for the re-seeding loop. At convergence no positive
  // tree remains, so every non-singleton tree is a fix chain that killed
  // its own gain — whether it hit an immovable vertex (blocked) or merely
  // dragged in enough negative gain. Its members become avoid-hints.
  // Untouched singletons stay unmarked: they are exactly the still-open
  // alternates a re-seeded pass may try.
  frozen.assign(g_->vertex_count(), 0);
  for (VertexId v = 0; v < g_->vertex_count(); ++v) {
    const VertexId root = forest.root_of(v);
    if (forest.subtree_blocked(root) > 0 || !forest.is_singleton(root))
      frozen[v] = 1;
  }
  return pass_commits;
}

SolverResult MinObsWinSolver::solve(const Retiming& initial) const {
  SERELIN_SPAN(opt_.enforce_elw ? "solver/minobswin" : "solver/minobs");
  SERELIN_REQUIRE(g_->valid(initial), "initial retiming must be valid");
  const double rmin = opt_.enforce_elw ? opt_.rmin : 0.0;
  ConstraintChecker checker(*g_, opt_.timing, rmin);
  GraphTiming timing(*g_, opt_.timing);

  SolverResult out;
  out.r = initial;

  // The incremental scheme requires a feasible start (Section V provides
  // one); when even the start violates P2' unfixably, the paper's
  // behaviour is to return it unchanged (the b18/b19 rows of Table I).
  timing.compute(out.r);
  if (checker.find_violation(out.r, timing)) {
    out.exited_early = true;
    return out;
  }

  // Algorithm 1 until its forest converges, then restart with a fresh
  // forest: accumulated constraints (in particular blocking links to
  // boundary vertices and cut-stale edges) are conservative, and a later
  // circuit state can unlock moves an earlier constraint froze. Passes
  // repeat while they commit; each commit strictly improves the bounded
  // objective, so that part terminates. A 0-commit pass does not end the
  // solve outright: the vertices its forest froze in blocked trees become
  // avoid-hints, and one more pass is re-seeded in which P2' violations
  // whose primary fix target is a hint fold their drain alternate instead
  // — the resolution an implication chain into an immovable vertex ruled
  // out. Re-seeding repeats only while the hint set grows (at most |V|
  // times), so termination is preserved.
  std::vector<char> movable(g_->vertex_count());
  for (VertexId v = 0; v < g_->vertex_count(); ++v)
    movable[v] = g_->movable(v);
  std::vector<char> avoid(g_->vertex_count(), 0);
  std::vector<char> frozen;
  while (out.stop_reason == StopReason::kNone) {
    RegularForest forest(gains_->gain, movable);
    if (run_pass(checker, timing, out, avoid, frozen, forest) > 0) continue;
    bool grew = false;
    for (VertexId v = 0; v < g_->vertex_count(); ++v) {
      if (frozen[v] && !avoid[v]) {
        avoid[v] = 1;
        grew = true;
      }
    }
    if (!grew) break;
  }
  return out;
}

}  // namespace serelin
