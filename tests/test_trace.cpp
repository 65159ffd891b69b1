// The tracing/metrics subsystem (src/support/trace, src/support/metrics):
// span nesting, exporter schema validity, and the determinism contract —
// counter totals must be bit-identical for any worker count. Every check
// also passes under `cmake -DSERELIN_TRACE=OFF` (the compiled-out build),
// where spans record nothing and every total is zero.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "check/exact_observability.hpp"
#include "check/wd_matrices.hpp"
#include "gen/random_circuit.hpp"
#include "netlist/cell_library.hpp"
#include "rgraph/retiming_graph.hpp"
#include "ser/ser_analyzer.hpp"
#include "sim/observability.hpp"
#include "support/metrics.hpp"
#include "support/parallel.hpp"
#include "support/trace.hpp"

namespace serelin {
namespace {

/// Restores the global worker count on scope exit so a failing test cannot
/// leak its thread setting into the rest of the suite.
struct ThreadGuard {
  ~ThreadGuard() { set_execution_threads(0); }
};

/// Stops (and thereby quiesces) the tracer on scope exit.
struct TracerGuard {
  ~TracerGuard() { Tracer::stop(); }
};

// --- a minimal JSON validator ---------------------------------------------
// Recursive descent over the full RFC 8259 grammar, values discarded: the
// exporters promise *valid* JSON, so the test checks exactly that without
// trusting any of the code under test.

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (eat('}')) return true;
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (!eat(':')) return false;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (eat('}')) return true;
      if (!eat(',')) return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (eat(']')) return true;
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (eat(']')) return true;
      if (!eat(',')) return false;
    }
  }

  bool string() {
    if (!eat('"')) return false;
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c == '\\') {
        if (pos_ >= s_.size()) return false;
        const char e = s_[pos_++];
        if (e == 'u') {
          for (int i = 0; i < 4; ++i)
            if (pos_ >= s_.size() || !std::isxdigit(
                    static_cast<unsigned char>(s_[pos_++])))
              return false;
        } else if (!std::strchr("\"\\/bfnrt", e)) {
          return false;
        }
      }
    }
    return false;
  }

  bool number() {
    const std::size_t start = pos_;
    eat('-');
    if (!digits()) return false;
    if (eat('.') && !digits()) return false;
    if (eat('e') || eat('E')) {
      if (!eat('+')) eat('-');
      if (!digits()) return false;
    }
    return pos_ > start;
  }

  bool digits() {
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           std::isdigit(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
    return pos_ > start;
  }

  bool literal(const char* lit) {
    const std::size_t n = std::strlen(lit);
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  bool eat(char c) {
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

Netlist random_circuit(int gates, std::uint64_t seed) {
  RandomCircuitSpec spec;
  spec.name = "trace" + std::to_string(gates);
  spec.gates = gates;
  spec.dffs = gates / 5;
  spec.inputs = 8;
  spec.outputs = 8;
  spec.seed = seed;
  return generate_random_circuit(spec);
}

// --- spans -----------------------------------------------------------------

TEST(Trace, SpansNestByScope) {
  TracerGuard guard;
  Tracer::start();
  {
    SERELIN_SPAN("outer");
    { SERELIN_SPAN("inner-a"); }
    { SERELIN_SPAN("inner-b"); }
  }
  Tracer::stop();
  if (!trace_compiled_in()) {
    EXPECT_EQ(Tracer::event_count(), 0u);
    return;
  }
  EXPECT_EQ(Tracer::event_count(), 3u);
  const std::string json = Tracer::chrome_json();
  // Inner spans carry depth 1, the outer span depth 0; completion order
  // puts the inner events first in the export.
  EXPECT_NE(json.find("\"name\": \"inner-a\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"inner-b\""), std::string::npos);
  EXPECT_NE(json.find("\"name\": \"outer\""), std::string::npos);
  EXPECT_NE(json.find("\"args\": {\"depth\": 1}"), std::string::npos);
  EXPECT_NE(json.find("\"args\": {\"depth\": 0}"), std::string::npos);
}

TEST(Trace, DormantSpansRecordNothing) {
  TracerGuard guard;
  Tracer::start();
  Tracer::stop();
  { SERELIN_SPAN("never-recorded"); }
  EXPECT_EQ(Tracer::event_count(), 0u);
  EXPECT_EQ(Tracer::chrome_json().find("never-recorded"), std::string::npos);
}

TEST(Trace, StartClearsEarlierSessions) {
  TracerGuard guard;
  Tracer::start();
  { SERELIN_SPAN("first-session"); }
  Tracer::stop();
  Tracer::start();
  Tracer::stop();
  EXPECT_EQ(Tracer::event_count(), 0u);
}

TEST(Trace, ChromeJsonIsValidJson) {
  TracerGuard guard;
  // Empty session first: the exporter's degenerate output must be valid.
  Tracer::start();
  Tracer::stop();
  EXPECT_TRUE(JsonChecker(Tracer::chrome_json()).valid())
      << Tracer::chrome_json();

  Tracer::start();
  {
    SERELIN_SPAN("phase \"quoted\" \\ and controls \n");
    { SERELIN_SPAN("child"); }
  }
  Tracer::stop();
  const std::string json = Tracer::chrome_json();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
}

TEST(Trace, WriteChromeJsonRoundTrips) {
  TracerGuard guard;
  Tracer::start();
  { SERELIN_SPAN("to-disk"); }
  Tracer::stop();
  const std::string path = testing::TempDir() + "serelin_trace_test.json";
  Tracer::write_chrome_json(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), Tracer::chrome_json());
  EXPECT_TRUE(JsonChecker(ss.str()).valid());
}

TEST(Trace, SpansInsideParallelLanesAttachToWorkerTids) {
  ThreadGuard threads;
  TracerGuard guard;
  set_execution_threads(2);
  Tracer::start();
  parallel_for(0, std::size_t{8}, 1, [&](std::size_t, int) {
    SERELIN_SPAN("lane-work");
  });
  Tracer::stop();
  if (!trace_compiled_in()) return;
  EXPECT_EQ(Tracer::event_count(), 8u);
  EXPECT_TRUE(JsonChecker(Tracer::chrome_json()).valid());
}

// --- counters --------------------------------------------------------------

TEST(Metrics, JsonHasEveryCounterInOrder) {
  const std::string json = metrics_json(MetricsSnapshot{});
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  std::size_t last = 0;
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    const std::string key =
        std::string("\"") + counter_name(static_cast<Counter>(i)) + "\"";
    const std::size_t at = json.find(key);
    ASSERT_NE(at, std::string::npos) << key;
    EXPECT_GT(at, last) << "counter keys out of enum order: " << key;
    last = at;
  }
}

TEST(Metrics, SnapshotsSubtractPerCounter) {
  MetricsSnapshot a, b;
  a.values[0] = 10;
  a.values[1] = 7;
  b.values[0] = 4;
  const MetricsSnapshot d = a - b;
  EXPECT_EQ(d.values[0], 6);
  EXPECT_EQ(d.values[1], 7);
  EXPECT_EQ(d[static_cast<Counter>(0)], 6);
}

TEST(Metrics, CountMacroAddsOnTheCallingThread) {
  const MetricsSnapshot before = metrics_snapshot();
  SERELIN_COUNT(kOracleChecks, 3);
  SERELIN_COUNT(kOracleChecks, 2);
  const MetricsSnapshot delta = metrics_snapshot() - before;
  EXPECT_EQ(delta[Counter::kOracleChecks], metrics_compiled_in() ? 5 : 0);
}

TEST(Metrics, WriteMetricsJsonRoundTrips) {
  const std::string path = testing::TempDir() + "serelin_metrics_test.json";
  const MetricsSnapshot before = metrics_snapshot();
  SERELIN_COUNT(kJournalWrites, 1);
  write_metrics_json(metrics_snapshot() - before, path);
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open());
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_TRUE(JsonChecker(ss.str()).valid()) << ss.str();
  EXPECT_NE(ss.str().find("\"journal-writes\""), std::string::npos);
}

TEST(Metrics, SimulatorCountsPatternWords) {
  const Netlist nl = random_circuit(60, 11);
  const MetricsSnapshot before = metrics_snapshot();
  SimConfig cfg;
  cfg.patterns = 128;
  cfg.frames = 2;
  cfg.warmup = 1;
  ObservabilityAnalyzer engine(nl, cfg);
  engine.run();
  const MetricsSnapshot delta = metrics_snapshot() - before;
  if (!metrics_compiled_in()) {
    EXPECT_EQ(delta[Counter::kSimPatternWords], 0);
    return;
  }
  // warmup + record + re-evaluation frames, each gate_count * 2 words.
  EXPECT_GT(delta[Counter::kSimPatternWords], 0);
  EXPECT_EQ(delta[Counter::kSimPatternWords] %
                static_cast<std::int64_t>(nl.gate_count() * 2),
            0);
}

// The determinism contract extended to the instrumentation: the per-kernel
// counter totals must be bit-identical for any worker count, because every
// increment is attached to a unit of work, never to a lane.
TEST(Metrics, CounterTotalsIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  const Netlist nl = random_circuit(200, 23);
  CellLibrary lib;
  const RetimingGraph g(nl, lib);

  auto run_kernels = [&] {
    const MetricsSnapshot before = metrics_snapshot();
    WdMatrices wd(g);
    (void)wd.candidate_periods();
    SimConfig cfg;
    cfg.patterns = 128;
    cfg.frames = 2;
    cfg.warmup = 1;
    exact_observability(nl, cfg);
    SerOptions ser;
    ser.timing = {100.0, 0.0, 2.0};
    ser.sim = cfg;
    analyze_ser(nl, lib, ser);
    return metrics_snapshot() - before;
  };

  set_execution_threads(1);
  const MetricsSnapshot reference = run_kernels();
  if (metrics_compiled_in()) {
    EXPECT_GT(reference[Counter::kWdSources], 0);
    EXPECT_GT(reference[Counter::kObsFlips], 0);
    EXPECT_GT(reference[Counter::kSimOdcWords], 0);
    EXPECT_GT(reference[Counter::kSerTerms], 0);
    EXPECT_GT(reference[Counter::kElwIntervalOps], 0);
  }
  for (int threads : {2, 8}) {
    set_execution_threads(threads);
    const MetricsSnapshot at_n = run_kernels();
    EXPECT_TRUE(at_n == reference)
        << "counter totals differ between 1 and " << threads << " threads: "
        << metrics_json(reference) << " vs " << metrics_json(at_n);
  }
}

// The counter gate of the production parallel kernels, pinned exactly. The
// signature pass and the 3-argument SER sweep run on a 2000-gate circuit at
// 1, 2 and 4 threads; results and counter snapshots must be bit-identical,
// and with counters compiled in the totals must be these constants. A
// counter that drifts means the kernel does different work, so a change
// that moves one must say why and re-pin it here.
TEST(Metrics, KernelCounterTotalsArePinned) {
  ThreadGuard guard;
  RandomCircuitSpec spec;
  spec.gates = 2000;
  spec.dffs = 500;
  spec.inputs = 32;
  spec.outputs = 32;
  spec.mean_fanin = 2.0;
  spec.seed = 777;
  const Netlist nl = generate_random_circuit(spec);
  CellLibrary lib;
  SimConfig obs_cfg;
  obs_cfg.patterns = 2048;
  obs_cfg.frames = 8;
  obs_cfg.warmup = 8;
  SerOptions ser_opt;
  ser_opt.timing = {100.0, 0.0, 2.0};
  ser_opt.sim.patterns = 512;
  ser_opt.sim.frames = 4;
  ser_opt.sim.warmup = 8;

  struct Run {
    ObsResult obs;
    MetricsSnapshot obs_counters;
    SerReport ser;
    MetricsSnapshot ser_counters;
  };
  auto run = [&] {
    Run r;
    MetricsSnapshot before = metrics_snapshot();
    r.obs = ObservabilityAnalyzer(nl, obs_cfg).run();
    r.obs_counters = metrics_snapshot() - before;
    before = metrics_snapshot();
    r.ser = analyze_ser(nl, lib, ser_opt);
    r.ser_counters = metrics_snapshot() - before;
    return r;
  };
  auto totals = [](std::initializer_list<std::pair<Counter, std::int64_t>>
                       nonzero) {
    MetricsSnapshot s;
    for (const auto& [counter, n] : nonzero)
      s.values[static_cast<std::size_t>(counter)] = n;
    return s;
  };

  set_execution_threads(1);
  const Run reference = run();
  if (metrics_compiled_in()) {
    EXPECT_EQ(metrics_json(reference.obs_counters),
              metrics_json(totals({{Counter::kSimPatternWords, 1536000},
                                   {Counter::kSimOdcWords, 1024000}})));
    EXPECT_EQ(metrics_json(reference.ser_counters),
              metrics_json(totals({{Counter::kElwIntervalOps, 8420},
                                   {Counter::kSimPatternWords, 256000},
                                   {Counter::kSimOdcWords, 128000},
                                   {Counter::kSerTerms, 2500}})));
  }
  for (int threads : {2, 4}) {
    set_execution_threads(threads);
    const Run at_n = run();
    EXPECT_EQ(at_n.obs.obs, reference.obs.obs) << threads << " threads";
    EXPECT_EQ(at_n.ser.obs, reference.ser.obs) << threads << " threads";
    EXPECT_EQ(at_n.ser.contribution, reference.ser.contribution)
        << threads << " threads";
    EXPECT_EQ(at_n.ser.total, reference.ser.total) << threads << " threads";
    EXPECT_EQ(at_n.ser.combinational, reference.ser.combinational);
    EXPECT_EQ(at_n.ser.sequential, reference.ser.sequential);
    EXPECT_EQ(metrics_json(at_n.obs_counters),
              metrics_json(reference.obs_counters))
        << threads << " threads";
    EXPECT_EQ(metrics_json(at_n.ser_counters),
              metrics_json(reference.ser_counters))
        << threads << " threads";
  }
}

}  // namespace
}  // namespace serelin
