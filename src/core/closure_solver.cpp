#include "core/closure_solver.hpp"

#include <algorithm>
#include <vector>

#include "support/check.hpp"
#include "support/metrics.hpp"
#include "support/trace.hpp"
#include "timing/constraints.hpp"
#include "timing/graph_timing.hpp"

namespace serelin {

namespace {

/// One bundle-growing attempt from a fixed seed set. Returns true and
/// commits into `r` when a feasible, improving bundle was found. On an
/// unfixable dependency the sponsoring seed is recorded in `excluded`.
class BundleGrower {
 public:
  BundleGrower(const RetimingGraph& g, const ObsGains& gains,
               const ConstraintChecker& checker, GraphTiming& timing,
               const Deadline& deadline)
      : g_(g), gains_(gains), checker_(checker), timing_(timing),
        deadline_(deadline) {}

  enum class Status {
    kCommitted,    ///< feasible improving bundle applied to r
    kExcluded,     ///< a seed was excluded (unfixable or worst cluster)
    kDead,         ///< nothing improving here and nothing to exclude
    kStopped,      ///< deadline/cancel hit mid-growth; r untouched
  };

  Status grow_and_commit(const std::vector<VertexId>& seeds, Retiming& r,
                         std::vector<char>& excluded, SolverResult& stats) {
    const std::size_t n = g_.vertex_count();
    delta_.assign(n, 0);
    movers_.assign(n, 0);
    sponsor_.assign(n, kNullVertex);
    members_.clear();
    for (VertexId s : seeds) {
      delta_[s] = 1;
      movers_[s] = 1;
      sponsor_[s] = s;
      members_.push_back(s);
    }
    const std::int64_t cap = 4096 + 64 * static_cast<std::int64_t>(n);
    for (std::int64_t step = 0; step < cap; ++step) {
      SERELIN_COUNT(kBundleGrowSteps, 1);
      // Abandoning a half-grown bundle is safe: `r` is only replaced on
      // commit, so the caller keeps its last feasible retiming.
      if (deadline_.expired()) return Status::kStopped;
      Retiming cand = r;
      for (VertexId v : members_) cand[v] -= delta_[v];
      // Incremental relabel against whatever state the labels last
      // described (bit-identical to compute(cand)). update requires a
      // valid retiming, so a P0-invalid candidate is not relabeled: the
      // labels keep describing the last valid state, and find_violation
      // reports the P0 violation from its full edge scan, which never
      // reads path labels.
      if (g_.valid(cand)) timing_.update(cand);
      const auto viol = checker_.find_violation(cand, timing_, movers_);
      if (!viol) {
        std::int64_t gain = 0;
        for (VertexId v : members_) gain += gains_.gain[v] * delta_[v];
        if (gain > 0) {
          r = std::move(cand);
          stats.objective_gain += gain;
          ++stats.commits;
          SERELIN_COUNT(kSolverCommits, 1);
          return Status::kCommitted;
        }
        // Feasible but not improving: shed the seed whose dependency
        // cluster drags the most (mirrors a tree leaving V_P) and retry.
        std::int64_t worst_gain = 0;
        VertexId worst = kNullVertex;
        for (VertexId s : seeds) {
          std::int64_t cluster = 0;
          for (VertexId v : members_)
            if (sponsor_[v] == s) cluster += gains_.gain[v] * delta_[v];
          if (worst == kNullVertex || cluster < worst_gain) {
            worst = s;
            worst_gain = cluster;
          }
        }
        if (worst == kNullVertex) return Status::kDead;
        excluded[worst] = 1;
        return Status::kExcluded;
      }
      ++stats.iterations;
      SERELIN_COUNT(kSolverIterations, 1);
      const VertexId p = viol->p;
      const VertexId q = viol->q;
      if (!g_.movable(q)) {
        if (p < n && movers_[p] && sponsor_[p] != kNullVertex)
          excluded[sponsor_[p]] = 1;
        else
          for (VertexId s : seeds) excluded[s] = 1;  // cannot attribute
        return Status::kExcluded;
      }
      if (!movers_[q]) {
        members_.push_back(q);
        movers_[q] = 1;
        sponsor_[q] = (p < n && movers_[p]) ? sponsor_[p] : q;
        delta_[q] = viol->w;
      } else {
        delta_[q] += viol->w;
      }
    }
    return Status::kDead;  // growth budget exhausted
  }

 private:
  const RetimingGraph& g_;
  const ObsGains& gains_;
  const ConstraintChecker& checker_;
  GraphTiming& timing_;
  const Deadline& deadline_;
  std::vector<std::int32_t> delta_;
  std::vector<char> movers_;
  std::vector<VertexId> sponsor_;
  std::vector<VertexId> members_;
};

}  // namespace

ClosureSolver::ClosureSolver(const RetimingGraph& g, const ObsGains& gains,
                             SolverOptions options)
    : g_(&g), gains_(&gains), opt_(options) {
  SERELIN_REQUIRE(gains.gain.size() == g.vertex_count(),
                  "gains must be indexed by VertexId");
}

SolverResult ClosureSolver::solve(const Retiming& initial) const {
  SERELIN_SPAN("solver/closure");
  SERELIN_REQUIRE(g_->valid(initial), "initial retiming must be valid");
  const double rmin = opt_.enforce_elw ? opt_.rmin : 0.0;
  ConstraintChecker checker(*g_, opt_.timing, rmin);
  GraphTiming timing(*g_, opt_.timing);

  SolverResult out;
  out.r = initial;
  timing.compute(out.r);
  if (checker.find_violation(out.r, timing)) {
    out.exited_early = true;
    return out;
  }

  const std::size_t n = g_->vertex_count();
  BundleGrower grower(*g_, *gains_, checker, timing, opt_.deadline);
  std::vector<char> excluded(n, 0);

  const auto stop = [&](const char* where) {
    out.stop_reason = opt_.deadline.status();
    if (out.stop_reason == StopReason::kNone)
      out.stop_reason = StopReason::kDeadline;
    out.stop_detail = std::string(stop_reason_name(out.stop_reason)) +
                      " during ClosureSolver (" + where + ") after " +
                      std::to_string(out.commits) +
                      " commit(s); returning best feasible retiming";
  };

  using Status = BundleGrower::Status;
  for (;;) {
    if (const StopReason sr = opt_.deadline.status();
        sr != StopReason::kNone) {
      stop("outer loop");
      break;
    }
    // Joint bundle with iterative seed pruning: excluded seeds drop out
    // until the bundle commits or dies (mirrors trees leaving V_P).
    bool committed = false;
    bool stopped = false;
    for (;;) {
      std::vector<VertexId> seeds;
      for (VertexId v = 0; v < n; ++v)
        if (!excluded[v] && g_->movable(v) && gains_->gain[v] > 0)
          seeds.push_back(v);
      if (seeds.empty()) break;
      const Status st = grower.grow_and_commit(seeds, out.r, excluded, out);
      if (st == Status::kCommitted) {
        committed = true;
        break;
      }
      if (st == Status::kStopped) {
        stopped = true;
        break;
      }
      if (st == Status::kDead) break;
      // kExcluded: retry with the reduced seed set.
    }
    if (!committed && !stopped) {
      // Fallback: each surviving seed alone.
      for (VertexId s = 0; s < n; ++s) {
        if (excluded[s] || !g_->movable(s) || gains_->gain[s] <= 0) continue;
        const Status st = grower.grow_and_commit({s}, out.r, excluded, out);
        if (st == Status::kCommitted) {
          committed = true;
          break;
        }
        if (st == Status::kStopped) {
          stopped = true;
          break;
        }
      }
    }
    if (stopped) {
      stop("bundle growth");
      break;
    }
    if (!committed) break;
    // A commit changes the landscape: re-admit every seed.
    std::fill(excluded.begin(), excluded.end(), 0);
  }
  return out;
}

}  // namespace serelin
