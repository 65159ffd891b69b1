// Parallel execution substrate: a fixed-size thread pool and a static
// fan-out primitive with a determinism contract.
//
// Every parallel kernel in serelin is written against two rules (see
// docs/PARALLELISM.md for the full contract):
//
//  1. Each loop iteration owns a *disjoint slice* of the output — no shared
//     mutable accumulators inside a parallel region. Reductions are summed
//     in fixed index order after the region completes.
//  2. Any randomness inside an iteration comes from its own stream,
//     `stream_rng(seed, index)` — SplitMix64-derived, so the draw sequence
//     depends only on (seed, index), never on which worker ran it.
//
// Under those rules every kernel is bit-identical for any thread count,
// and `set_execution_threads(1)` reproduces the historical single-threaded
// behavior exactly (parallel_for then degenerates to a plain loop on the
// calling thread).
//
// Scheduling is *static chunking*: [begin, end) is cut into chunks of
// `grain` iterations and chunk c is pinned to worker lane c % workers.
// Nested parallel_for calls (a kernel invoked from inside another parallel
// region) run inline on the calling worker — parallelism never nests, so
// per-worker scratch indexed by the lane id stays race-free.
#pragma once

#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "support/annotations.hpp"
#include "support/deadline.hpp"
#include "support/rng.hpp"
#include "support/sync.hpp"

namespace serelin {

/// Number of hardware threads (>= 1 even when the runtime reports 0).
int hardware_threads();

/// Sets the global worker count for subsequent parallel regions.
/// `n` = 0 means "use hardware_threads()"; `n` = 1 disables threading.
void set_execution_threads(int n);

/// The resolved worker count (>= 1) the next parallel region will use.
int execution_threads();

/// Upper bound on the worker-lane index passed to parallel_for bodies;
/// size per-worker scratch arrays with this.
inline int parallel_workers() { return execution_threads(); }

/// Global execution configuration, applied by set_execution_threads and
/// consumed by tools (serelin_cli --threads N flows through here).
struct ExecutionConfig {
  /// Requested worker count; 0 = hardware concurrency.
  int threads = 0;
};

/// An independent deterministic RNG stream for parallel iteration `index`:
/// the state is SplitMix64-mixed from (seed, index), so streams are
/// decorrelated and depend only on the pair, never on thread assignment.
Rng stream_rng(std::uint64_t seed, std::uint64_t index);

/// Fixed-size pool of persistent worker threads. Lane 0 is the calling
/// thread; lanes 1..workers-1 are pool threads parked on a condition
/// variable between regions.
class ThreadPool {
 public:
  explicit ThreadPool(int workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int workers() const { return static_cast<int>(threads_.size()) + 1; }

  /// Runs `body(lane)` on every lane (the caller participates as lane 0)
  /// and returns when all lanes finished. The first exception thrown by
  /// any lane is rethrown on the caller.
  void run(const std::function<void(int)>& body);

 private:
  void worker_loop(int lane);

  std::vector<std::thread> threads_;
  // The dispatch handshake. Everything the workers and the caller share is
  // guarded by mutex_; clang's -Wthread-safety proves it (see
  // support/annotations.hpp and docs/STATIC_ANALYSIS.md).
  Mutex mutex_;
  CondVar start_cv_;
  CondVar done_cv_;
  const std::function<void(int)>* body_ SERELIN_GUARDED_BY(mutex_) = nullptr;
  std::uint64_t generation_ SERELIN_GUARDED_BY(mutex_) = 0;
  int pending_ SERELIN_GUARDED_BY(mutex_) = 0;
  bool stop_ SERELIN_GUARDED_BY(mutex_) = false;
};

namespace detail {

/// True while the calling thread is executing inside a parallel region;
/// nested regions run inline to keep lane-indexed scratch race-free.
bool in_parallel_region();

/// Static-chunked fan-out of [begin, end) with chunk size `grain` over the
/// configured workers; `body(chunk_begin, chunk_end, lane)` is called once
/// per chunk, chunks in increasing order within each lane.
void parallel_for_impl(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t, int)>& body);

}  // namespace detail

/// Parallel loop over [begin, end): `fn(i, lane)` once per index, statically
/// chunked by `grain`. Bit-identical results for any thread count provided
/// fn obeys the disjoint-output contract above. With 1 worker (or when
/// called from inside another parallel region) this is a plain loop.
template <typename Fn>
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  Fn&& fn) {
  detail::parallel_for_impl(
      begin, end, grain,
      [&fn](std::size_t b, std::size_t e, int lane) {
        for (std::size_t i = b; i < e; ++i) fn(i, lane);
      });
}

/// Deadline-aware parallel loop: every lane checks `deadline` before each
/// iteration and the first expiry aborts the whole region by throwing
/// CancelledError("<where>: ..."), rethrown on the calling thread. Use for
/// fan-outs whose per-iteration work is substantial (a Dijkstra source, a
/// full resimulation); tighter loops should poll a DeadlinePoller inside
/// the body instead. An unlimited deadline costs nothing.
template <typename Fn>
void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                  const Deadline& deadline, const char* where, Fn&& fn) {
  if (deadline.unlimited()) {
    parallel_for(begin, end, grain, std::forward<Fn>(fn));
    return;
  }
  detail::parallel_for_impl(
      begin, end, grain,
      [&fn, &deadline, where](std::size_t b, std::size_t e, int lane) {
        for (std::size_t i = b; i < e; ++i) {
          deadline.check(where);
          fn(i, lane);
        }
      });
}

/// Chunk-granular variant for kernels that want the whole block at once
/// (e.g. a word-block of simulation patterns): `fn(chunk_begin, chunk_end,
/// lane)` per chunk.
template <typename Fn>
void parallel_for_chunks(std::size_t begin, std::size_t end,
                         std::size_t grain, Fn&& fn) {
  detail::parallel_for_impl(
      begin, end, grain,
      [&fn](std::size_t b, std::size_t e, int lane) { fn(b, e, lane); });
}

}  // namespace serelin
