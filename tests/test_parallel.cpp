// The determinism contract of the parallel execution substrate
// (docs/PARALLELISM.md): every parallel kernel must produce bit-identical
// results for any worker count. Each check runs the same computation at
// threads ∈ {1, 2, hardware} and compares the raw output bits — not with
// tolerances, with operator== on the doubles.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "check/exact_observability.hpp"
#include "check/wd_matrices.hpp"
#include "gen/paper_examples.hpp"
#include "gen/random_circuit.hpp"
#include "helpers.hpp"
#include "ser/ser_analyzer.hpp"
#include "sim/observability.hpp"
#include "support/parallel.hpp"
#include "support/sync.hpp"

namespace serelin {
namespace {

/// Restores the global worker count on scope exit so a failing test cannot
/// leak its thread setting into the rest of the suite.
struct ThreadGuard {
  ~ThreadGuard() { set_execution_threads(0); }
};

std::vector<int> thread_ladder() {
  std::vector<int> out = {1, 2};
  if (hardware_threads() > 2) out.push_back(hardware_threads());
  out.push_back(hardware_threads() + 3);  // more lanes than cores
  return out;
}

Netlist random_circuit(int gates, std::uint64_t seed) {
  RandomCircuitSpec spec;
  spec.name = "par" + std::to_string(gates);
  spec.gates = gates;
  spec.dffs = gates / 5;
  spec.inputs = 8;
  spec.outputs = 8;
  spec.seed = seed;
  return generate_random_circuit(spec);
}

// --- parallel_for primitive ------------------------------------------------

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadGuard guard;
  for (int threads : thread_ladder()) {
    set_execution_threads(threads);
    // More tasks than threads, deliberately non-divisible by the grain.
    constexpr std::size_t kTasks = 1003;
    std::vector<int> hits(kTasks, 0);
    parallel_for(0, kTasks, 7,
                 [&](std::size_t i, int) { ++hits[i]; });
    for (std::size_t i = 0; i < kTasks; ++i)
      ASSERT_EQ(hits[i], 1) << "index " << i << " at " << threads
                            << " threads";
  }
}

TEST(ParallelFor, LaneIndexStaysBelowWorkerCount) {
  // The shared pool keeps the largest worker count ever requested, so grow
  // it first: a region configured for fewer workers must not let the
  // pool's surplus lanes run, since callers size per-lane scratch with
  // parallel_workers().
  ThreadGuard guard;
  set_execution_threads(8);
  parallel_for(0, std::size_t{64}, 1, [](std::size_t, int) {});
  set_execution_threads(3);
  std::atomic<bool> ok{true};
  parallel_for(0, 1000, 1, [&](std::size_t, int lane) {
    if (lane < 0 || lane >= parallel_workers()) ok = false;
  });
  EXPECT_TRUE(ok);
}

TEST(ParallelFor, StreamRngIsThreadCountInvariant) {
  ThreadGuard guard;
  constexpr std::uint64_t kSeed = 42;
  constexpr std::size_t kTasks = 257;
  std::vector<std::uint64_t> reference(kTasks);
  for (std::size_t i = 0; i < kTasks; ++i)
    reference[i] = stream_rng(kSeed, i).next();
  for (int threads : thread_ladder()) {
    set_execution_threads(threads);
    std::vector<std::uint64_t> got(kTasks, 0);
    parallel_for(0, kTasks, 3, [&](std::size_t i, int) {
      got[i] = stream_rng(kSeed, i).next();
    });
    EXPECT_EQ(got, reference) << threads << " threads";
  }
}

TEST(ParallelFor, DistinctIndicesGetDistinctStreams) {
  Rng a = stream_rng(7, 0);
  Rng b = stream_rng(7, 1);
  ASSERT_NE(a.next(), b.next());
}

TEST(ParallelFor, PropagatesExceptions) {
  ThreadGuard guard;
  set_execution_threads(2);
  EXPECT_THROW(
      parallel_for(0, 100, 1,
                   [&](std::size_t i, int) {
                     if (i == 57) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

TEST(ParallelFor, NestedRegionsRunInline) {
  ThreadGuard guard;
  set_execution_threads(4);
  std::vector<int> hits(64, 0);
  parallel_for(0, 8, 1, [&](std::size_t outer, int) {
    // A nested parallel_for must not fan out again (per-lane scratch of
    // the outer region would be shared); it runs inline on lane 0.
    parallel_for(0, 8, 1, [&](std::size_t inner, int lane) {
      EXPECT_EQ(lane, 0);
      ++hits[outer * 8 + inner];
    });
  });
  for (int h : hits) EXPECT_EQ(h, 1);
}

// --- W/D matrices ----------------------------------------------------------

void expect_wd_identical(const Netlist& nl) {
  ThreadGuard guard;
  CellLibrary lib;
  RetimingGraph g(nl, lib);
  set_execution_threads(1);
  const WdMatrices reference(g);
  const std::vector<double> ref_periods = reference.candidate_periods();
  for (int threads : thread_ladder()) {
    set_execution_threads(threads);
    const WdMatrices wd(g);
    ASSERT_EQ(wd.size(), reference.size());
    for (VertexId u = 0; u < g.vertex_count(); ++u) {
      for (VertexId v = 0; v < g.vertex_count(); ++v) {
        ASSERT_EQ(wd.w(u, v), reference.w(u, v))
            << "W(" << u << "," << v << ") at " << threads << " threads";
        ASSERT_EQ(wd.d(u, v), reference.d(u, v))
            << "D(" << u << "," << v << ") at " << threads << " threads";
      }
    }
    EXPECT_EQ(wd.candidate_periods(), ref_periods);
  }
}

TEST(ParallelWd, BitIdenticalOnPaperExample) {
  expect_wd_identical(fig1_circuit(12));
}

TEST(ParallelWd, BitIdenticalOnRandomCircuits) {
  expect_wd_identical(random_circuit(300, 11));
  expect_wd_identical(random_circuit(500, 12));
}

TEST(ParallelWd, BitIdenticalOnTinyFixtures) {
  // Fewer sources than workers: some lanes receive no chunk at all.
  expect_wd_identical(test::tiny_pipeline());
  expect_wd_identical(test::tiny_ring());
}

TEST(WdCandidatePeriods, ToleranceDedupKeepsDistinctValues) {
  CellLibrary lib;
  const Netlist nl = test::tiny_pipeline();
  RetimingGraph g(nl, lib);
  const WdMatrices wd(g);
  const std::vector<double> periods = wd.candidate_periods();
  ASSERT_FALSE(periods.empty());
  // Strictly increasing with a real gap — no exact duplicates, no
  // near-duplicates within the 1e-9 tolerance.
  for (std::size_t i = 1; i < periods.size(); ++i)
    EXPECT_GT(periods[i], periods[i - 1] + 1e-9);
}

// --- Observability ---------------------------------------------------------

ObsResult signature_observability(const Netlist& nl, const SimConfig& cfg) {
  return ObservabilityAnalyzer(nl, cfg).run();
}

using ObsEngine = ObsResult (*)(const Netlist&, const SimConfig&);

void expect_obs_identical(const Netlist& nl, ObsEngine engine,
                          const char* what, int patterns = 256) {
  ThreadGuard guard;
  SimConfig cfg;
  cfg.patterns = patterns;
  cfg.frames = 4;
  cfg.warmup = 6;
  set_execution_threads(1);
  const ObsResult reference = engine(nl, cfg);
  for (int threads : thread_ladder()) {
    set_execution_threads(threads);
    const ObsResult got = engine(nl, cfg);
    ASSERT_EQ(got.obs.size(), reference.obs.size());
    for (std::size_t i = 0; i < got.obs.size(); ++i)
      ASSERT_EQ(got.obs[i], reference.obs[i])
          << "node " << i << " at " << threads << " threads (" << what << ")";
  }
}

TEST(ParallelObservability, ExactBitIdenticalOnPaperExample) {
  expect_obs_identical(fig1_circuit(10), exact_observability, "exact");
}

TEST(ParallelObservability, ExactBitIdenticalOnRandomCircuit) {
  // More flip nodes than any worker count in the ladder.
  expect_obs_identical(random_circuit(200, 21), exact_observability,
                       "exact");
}

TEST(ParallelObservability, SignatureBitIdenticalOnPaperExample) {
  expect_obs_identical(fig1_circuit(10), signature_observability,
                       "signature");
}

TEST(ParallelObservability, SignatureBitIdenticalOnRandomCircuit) {
  expect_obs_identical(random_circuit(400, 22), signature_observability,
                       "signature");
}

TEST(ParallelObservability, SignatureBitIdenticalOnRaggedWordBlocks) {
  // 20 pattern words in blocks of whole 8-word lines: 16 + 4 words at 2
  // lanes, 8 + 8 + 4 at 3 or more, and idle lanes beyond 3.
  expect_obs_identical(random_circuit(400, 24), signature_observability,
                       "signature", 1280);
}

// --- SER analysis ----------------------------------------------------------

// The Eq. (4) sweep is serial; the signature pass inside analyze_ser is the
// part that splits, so 20 pattern words give it more than one block.
TEST(ParallelSer, TotalsBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  const Netlist nl = random_circuit(300, 31);
  CellLibrary lib;
  SerOptions opt;
  opt.timing = {40.0, 0.0, 2.0};
  opt.sim.patterns = 1280;
  opt.sim.frames = 4;
  opt.sim.warmup = 6;

  set_execution_threads(1);
  const SerReport reference = analyze_ser(nl, lib, opt);
  for (int threads : thread_ladder()) {
    set_execution_threads(threads);
    const SerReport got = analyze_ser(nl, lib, opt);
    EXPECT_EQ(got.total, reference.total) << threads << " threads";
    EXPECT_EQ(got.combinational, reference.combinational);
    EXPECT_EQ(got.sequential, reference.sequential);
    ASSERT_EQ(got.contribution.size(), reference.contribution.size());
    for (std::size_t i = 0; i < got.contribution.size(); ++i)
      ASSERT_EQ(got.contribution[i], reference.contribution[i]) << i;
  }
}

// --- Stress ----------------------------------------------------------------

TEST(ParallelStress, ManyMoreTasksThanThreads) {
  ThreadGuard guard;
  set_execution_threads(4);
  constexpr std::size_t kTasks = 10000;
  std::vector<std::uint64_t> slots(kTasks, 0);
  parallel_for(0, kTasks, 1, [&](std::size_t i, int) {
    Rng rng = stream_rng(99, i);
    std::uint64_t acc = 0;
    for (int k = 0; k < 16; ++k) acc ^= rng.next();
    slots[i] = acc;
  });
  set_execution_threads(1);
  std::vector<std::uint64_t> reference(kTasks, 0);
  parallel_for(0, kTasks, 1, [&](std::size_t i, int) {
    Rng rng = stream_rng(99, i);
    std::uint64_t acc = 0;
    for (int k = 0; k < 16; ++k) acc ^= rng.next();
    reference[i] = acc;
  });
  EXPECT_EQ(slots, reference);
}

// --- CondVar timed waits ---------------------------------------------------
//
// CondVar::wait_for has no predicate parameter and no return value: callers
// MUST loop on their own predicate (sync.hpp documents this). These tests pin
// down the three ways that contract can go wrong — a timed wait that never
// returns, a loop that trusts a wakeup instead of its predicate, and a
// notification that fires before the waiter ever blocks. The suite name
// keeps the Parallel* prefix so the TSan CI stage picks it up.

TEST(ParallelCondVar, WaitForReturnsAfterTimeoutWhenNeverNotified) {
  Mutex m;
  CondVar cv;
  bool flag = false;
  const auto t0 = std::chrono::steady_clock::now();
  const auto budget = std::chrono::milliseconds(60);
  {
    MutexLock lock(m);
    // Nobody ever notifies and nobody ever sets the flag: the only way out
    // of this loop is wait_for's timeout bounding each lap. A plain wait()
    // here would hang forever.
    while (!flag && std::chrono::steady_clock::now() - t0 < budget) {
      cv.wait_for(m, std::chrono::milliseconds(5));
    }
  }
  EXPECT_FALSE(flag);
  EXPECT_GE(std::chrono::steady_clock::now() - t0, budget);
}

TEST(ParallelCondVar, PredicateLoopSurvivesSpuriousWakeups) {
  Mutex m;
  CondVar cv;
  bool flag = false;
  std::atomic<bool> waiter_done{false};
  std::thread waiter([&] {
    MutexLock lock(m);
    while (!flag) cv.wait_for(m, std::chrono::milliseconds(50));
    waiter_done.store(true);
  });
  // Hammer the waiter with wakeups that do NOT establish the predicate —
  // indistinguishable, from its side, from spurious wakeups. A waiter that
  // exits on wakeup rather than on the predicate trips the EXPECT below.
  for (int i = 0; i < 20; ++i) {
    cv.notify_all();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_FALSE(waiter_done.load());
  {
    MutexLock lock(m);
    flag = true;
  }
  cv.notify_all();
  waiter.join();
  EXPECT_TRUE(waiter_done.load());
}

TEST(ParallelCondVar, NotifyBeforeWaitStillMakesProgress) {
  Mutex m;
  CondVar cv;
  bool flag = false;
  // Establish the predicate and notify while nobody is waiting. The
  // notification itself is lost (condition variables are not latches), so a
  // correct waiter must check the predicate before blocking — and even if it
  // blocks anyway, the timed wait bounds the damage to one lap.
  {
    MutexLock lock(m);
    flag = true;
  }
  cv.notify_one();
  std::thread waiter([&] {
    MutexLock lock(m);
    while (!flag) cv.wait_for(m, std::chrono::milliseconds(20));
    flag = false;  // consume, proving we held the lock with the flag set
  });
  waiter.join();
  MutexLock lock(m);
  EXPECT_FALSE(flag);
}

}  // namespace
}  // namespace serelin
