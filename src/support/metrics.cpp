#include "support/metrics.hpp"

#include <vector>

#include "support/annotations.hpp"
#include "support/atomic_io.hpp"
#include "support/check.hpp"
#include "support/sync.hpp"

namespace serelin {

const char* counter_name(Counter c) {
  switch (c) {
    case Counter::kLpRelaxations: return "lp-relaxations";
    case Counter::kFeasPasses: return "feas-passes";
    case Counter::kTimingPasses: return "timing-passes";
    case Counter::kSolverIterations: return "solver-iterations";
    case Counter::kSolverCommits: return "solver-commits";
    case Counter::kSolverP0Rounds: return "solver-p0-rounds";
    case Counter::kSolverP0Folds: return "solver-p0-folds";
    case Counter::kForestConstraints: return "forest-constraints";
    case Counter::kForestBreaks: return "forest-breaks";
    case Counter::kForestCuts: return "forest-cuts";
    case Counter::kBundleGrowSteps: return "bundle-grow-steps";
    case Counter::kWdSources: return "wd-sources";
    case Counter::kWdHeapPops: return "wd-heap-pops";
    case Counter::kIncrNodesTouched: return "incr-nodes-touched";
    case Counter::kElwIntervalOps: return "elw-interval-ops";
    case Counter::kSimPatternWords: return "sim-pattern-words";
    case Counter::kObsFlips: return "obs-flips";
    case Counter::kSerTerms: return "ser-terms";
    case Counter::kOracleChecks: return "oracle-checks";
    case Counter::kDeadlineSlices: return "deadline-slices";
    case Counter::kJournalWrites: return "journal-writes";
    case Counter::kServeJobs: return "serve-jobs";
    case Counter::kServeCacheHits: return "serve-cache-hits";
    case Counter::kServeCacheMisses: return "serve-cache-misses";
    case Counter::kCount: break;
  }
  return "unknown";
}

std::string metrics_json(const MetricsSnapshot& snapshot) {
  std::string out = "{";
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    if (i) out += ", ";
    out += '"';
    out += counter_name(static_cast<Counter>(i));
    out += "\": ";
    out += std::to_string(snapshot.values[i]);
  }
  out += '}';
  return out;
}

void write_metrics_json(const MetricsSnapshot& snapshot,
                        const std::string& path) {
  // Atomic replace: a crash mid-write leaves the previous metrics file (or
  // nothing) rather than a truncated JSON document.
  atomic_write_file(path, metrics_json(snapshot) + '\n');
}

#if SERELIN_TRACE_ENABLED

namespace {

/// One per-thread counter block. Blocks outlive their threads: the
/// registry owns them (a worker that exits leaves its totals behind, so
/// snapshots never lose counts).
struct CounterBlock {
  std::int64_t values[kCounterCount] = {};
};

struct Registry {
  Mutex mutex;
  /// Registration order; never shrinks. The *vector* is guarded; each
  /// block has a single writer (its thread) and is only read/zeroed by
  /// snapshot/reset outside parallel regions (header contract).
  std::vector<CounterBlock*> blocks SERELIN_GUARDED_BY(mutex);
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: usable during exit
  return *r;
}

CounterBlock* register_block() {
  auto* block = new CounterBlock();
  Registry& r = registry();
  const MutexLock lock(r.mutex);
  r.blocks.push_back(block);
  return block;
}

}  // namespace

namespace detail {

std::int64_t* metric_lane() {
  thread_local CounterBlock* block = register_block();
  return block->values;
}

}  // namespace detail

MetricsSnapshot metrics_snapshot() {
  MetricsSnapshot out;
  Registry& r = registry();
  const MutexLock lock(r.mutex);
  for (const CounterBlock* block : r.blocks)
    for (std::size_t i = 0; i < kCounterCount; ++i)
      out.values[i] += block->values[i];
  return out;
}

void metrics_reset() {
  Registry& r = registry();
  const MutexLock lock(r.mutex);
  for (CounterBlock* block : r.blocks)
    for (std::size_t i = 0; i < kCounterCount; ++i) block->values[i] = 0;
}

#endif  // SERELIN_TRACE_ENABLED

}  // namespace serelin
