// Named solver/kernel counters with deterministic totals.
//
// Counters answer "how much work did this run do" — LP relaxations, forest
// rebuilds, ELW interval operations, simulator pattern-words — the numbers
// that tell which engine dominated a run (docs/OBSERVABILITY.md). The
// design constraints:
//
//  * Increments happen on hot paths (a Dijkstra pop, an interval merge),
//    so the fast path must be a handful of instructions: each thread owns
//    a plain thread-local block (single writer, no atomics), registered
//    once with the global registry.
//  * Totals must be *bit-identical for any thread count*: every increment
//    is attached to a unit of work (a source vertex, a pattern word, a
//    constraint), never to a lane or a scheduling decision, and integer
//    addition commutes exactly. metrics_snapshot() sums the thread blocks
//    in registration order.
//  * `cmake -DSERELIN_TRACE=OFF` compiles every SERELIN_COUNT site to
//    nothing, so the perf path can shed even the thread-local accesses.
//
// Snapshots subtract, so callers bracket a region of interest:
//
//   const MetricsSnapshot before = metrics_snapshot();
//   run_stage();
//   journal.set_json("metrics", metrics_json(metrics_snapshot() - before));
//
// metrics_snapshot() must be called outside parallel regions: parallel_for
// joins every lane before returning (a full happens-before edge), so
// between regions the thread blocks are quiescent and plain reads are
// race-free.
#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace serelin {

/// Every named counter. Names (counter_name) are stable: journals, metrics
/// files and BENCH_serve.json key on them.
enum class Counter : std::uint16_t {
  kLpRelaxations,    ///< Bellman–Ford relaxations in the retiming LP
  kFeasPasses,       ///< FEAS passes of the min-period retimer
  kTimingPasses,     ///< GraphTiming::compute invocations
  kSolverIterations, ///< MinObsWin timing probes + ClosureSolver violations
  kSolverCommits,    ///< committed improving moves
  kSolverP0Rounds,   ///< MinObsWin P0-closure rounds run
  kSolverP0Folds,    ///< constraints the P0 closure folds into the forest
  kForestConstraints,///< active constraints folded into the regular forest
  kForestBreaks,     ///< BreakTree rebuilds
  kForestCuts,       ///< irregular-edge cuts during re-regularization
  kForestEdgeChecks, ///< forest edges tested for regularity while restoring it
  kBundleGrowSteps,  ///< closure-solver bundle growth steps
  kWdSources,        ///< single-source W/D computations
  kWdHeapPops,       ///< Dijkstra heap pops during W/D construction
  kIncrNodesTouched, ///< never incremented (reads 0); perfbench reads it
  kElwIntervalOps,   ///< interval-set ops (insert/unite/shift/clamp)
  kSimPatternWords,  ///< 64-pattern value words evaluated by the simulator
  kSimOdcWords,      ///< signature pass: gate fanin pins x ODC words x frames
  kObsFlips,         ///< exact-observability flip-and-resimulate runs
  kSerTerms,         ///< per-cell Eq. (4) contribution terms
  kOracleChecks,     ///< oracle invariant checks executed
  kDeadlineSlices,   ///< pipeline stage deadline slices consumed
  kJournalWrites,    ///< JSONL journal lines written
  kServeJobs,        ///< retiming jobs executed by the job server
  kServeCacheHits,   ///< submissions answered from the server result cache
  kServeCacheMisses, ///< submissions that had to run the pipeline
  kCount
};

inline constexpr std::size_t kCounterCount =
    static_cast<std::size_t>(Counter::kCount);

/// Stable kebab-case name, e.g. "lp-relaxations".
const char* counter_name(Counter c);

/// A consistent copy of every counter total. Value type: snapshots
/// subtract to give per-region deltas.
struct MetricsSnapshot {
  std::array<std::int64_t, kCounterCount> values{};

  std::int64_t operator[](Counter c) const {
    return values[static_cast<std::size_t>(c)];
  }
  MetricsSnapshot operator-(const MetricsSnapshot& rhs) const {
    MetricsSnapshot out;
    for (std::size_t i = 0; i < kCounterCount; ++i)
      out.values[i] = values[i] - rhs.values[i];
    return out;
  }
  bool operator==(const MetricsSnapshot&) const = default;
};

/// One flat JSON object {"lp-relaxations": 0, ...} with every counter, in
/// enum order (stable for diffing).
std::string metrics_json(const MetricsSnapshot& snapshot);

/// Writes metrics_json(snapshot) (newline-terminated) to `path`; throws
/// serelin::Error on I/O failure.
void write_metrics_json(const MetricsSnapshot& snapshot,
                        const std::string& path);

#if SERELIN_TRACE_ENABLED

namespace detail {

/// The calling thread's counter block (registered on first use).
std::int64_t* metric_lane();

}  // namespace detail

/// Adds `n` to counter `c` on the calling thread's block. Hot-path safe:
/// one thread-local lookup and one plain add (single writer per block).
inline void metric_add(Counter c, std::int64_t n) {
  detail::metric_lane()[static_cast<std::size_t>(c)] += n;
}

/// Sums every registered thread block in registration order. Call outside
/// parallel regions (see the header comment).
MetricsSnapshot metrics_snapshot();

#else  // !SERELIN_TRACE_ENABLED — compiled-out stubs, zero overhead

inline void metric_add(Counter, std::int64_t) {}
inline MetricsSnapshot metrics_snapshot() { return {}; }

#endif

/// True when the library was built with SERELIN_TRACE=ON.
constexpr bool metrics_compiled_in() { return SERELIN_TRACE_ENABLED != 0; }

}  // namespace serelin

/// Instrumentation macro: compiles to nothing under SERELIN_TRACE=OFF.
/// `counter` is the bare enumerator name, e.g. SERELIN_COUNT(kWdHeapPops, 1).
#if SERELIN_TRACE_ENABLED
#define SERELIN_COUNT(counter, n) \
  ::serelin::metric_add(::serelin::Counter::counter, (n))
#else
// sizeof keeps `n` (and any locals it reads) formally used without
// evaluating it, so OFF builds stay warning-clean under -Werror.
#define SERELIN_COUNT(counter, n) \
  ((void)sizeof(::serelin::Counter::counter), (void)sizeof(n))
#endif
