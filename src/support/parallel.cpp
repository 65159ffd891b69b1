#include "support/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#include "support/check.hpp"

namespace serelin {

namespace {

std::atomic<int> g_requested_threads{0};  // 0 = hardware concurrency

thread_local bool tl_in_region = false;

}  // namespace

int hardware_threads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

void set_execution_threads(int n) {
  SERELIN_REQUIRE(n >= 0, "thread count must be >= 0 (0 = hardware)");
  g_requested_threads.store(n, std::memory_order_relaxed);
}

int execution_threads() {
  const int n = g_requested_threads.load(std::memory_order_relaxed);
  return n == 0 ? hardware_threads() : n;
}

Rng stream_rng(std::uint64_t seed, std::uint64_t index) {
  // Two SplitMix64 steps fold the index into the seed so that nearby
  // (seed, index) pairs yield decorrelated generator states; the Rng
  // constructor then runs its own SplitMix64 expansion on top.
  std::uint64_t s = seed;
  splitmix64(s);
  s ^= index;
  return Rng(splitmix64(s));
}

ThreadPool::ThreadPool(int workers) {
  SERELIN_REQUIRE(workers >= 1, "a pool needs at least one worker");
  threads_.reserve(static_cast<std::size_t>(workers - 1));
  for (int lane = 1; lane < workers; ++lane)
    threads_.emplace_back([this, lane] { worker_loop(lane); });
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::run(const std::function<void(int)>& body) {
  if (threads_.empty()) {
    body(0);
    return;
  }
  {
    MutexLock lock(mutex_);
    body_ = &body;
    pending_ = static_cast<int>(threads_.size());
    ++generation_;
  }
  start_cv_.notify_all();
  body(0);  // the caller is lane 0
  MutexLock lock(mutex_);
  while (pending_ != 0) done_cv_.wait(mutex_);
  body_ = nullptr;
}

void ThreadPool::worker_loop(int lane) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(int)>* body = nullptr;
    {
      MutexLock lock(mutex_);
      while (!stop_ && generation_ == seen) start_cv_.wait(mutex_);
      if (stop_) return;
      seen = generation_;
      body = body_;
    }
    (*body)(lane);
    {
      MutexLock lock(mutex_);
      if (--pending_ == 0) done_cv_.notify_one();
    }
  }
}

namespace detail {

bool in_parallel_region() { return tl_in_region; }

namespace {

/// Lazily grown process-wide pool. Guarded by a mutex: serelin's parallel
/// regions are issued from one orchestrating thread at a time, but two
/// independent callers must not interleave lane dispatch on one pool.
Mutex g_pool_mutex;
std::unique_ptr<ThreadPool> g_pool SERELIN_GUARDED_BY(g_pool_mutex);

ThreadPool& shared_pool(int workers) SERELIN_REQUIRES(g_pool_mutex) {
  if (!g_pool || g_pool->workers() < workers)
    g_pool = std::make_unique<ThreadPool>(workers);
  return *g_pool;
}

}  // namespace

void parallel_for_impl(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t, int)>& body) {
  if (begin >= end) return;
  const std::size_t g = std::max<std::size_t>(1, grain);
  const std::size_t total = end - begin;
  const std::size_t nchunks = (total + g - 1) / g;

  auto run_chunks = [&](std::size_t first_chunk, std::size_t stride,
                        int lane) {
    for (std::size_t c = first_chunk; c < nchunks; c += stride) {
      const std::size_t b = begin + c * g;
      const std::size_t e = std::min(end, b + g);
      body(b, e, lane);
    }
  };

  const int workers = execution_threads();
  if (workers <= 1 || nchunks <= 1 || tl_in_region) {
    // Single-threaded, trivially small, or nested: a plain inline loop on
    // the calling lane. (Nested regions inline so per-lane scratch of the
    // outer region is never shared.)
    run_chunks(0, 1, 0);
    return;
  }

  std::exception_ptr first_error;
  Mutex error_mutex;
  const int lanes = static_cast<int>(
      std::min<std::size_t>(static_cast<std::size_t>(workers), nchunks));
  {
    MutexLock pool_lock(g_pool_mutex);
    ThreadPool& pool = shared_pool(workers);
    pool.run([&](int lane) {
      if (lane >= lanes) return;
      tl_in_region = true;
      try {
        run_chunks(static_cast<std::size_t>(lane), lanes, lane);
      } catch (...) {
        MutexLock lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
      tl_in_region = false;
    });
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace detail

}  // namespace serelin
