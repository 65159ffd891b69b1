// The one kernel bench: word-parallel simulation, the backward ODC pass,
// graph timing recomputation (the inner loop of the solvers), exact
// interval-ELW computation, and interval-set arithmetic. Kernel times only
// diagnose; performance is judged end to end by perfbench.
// BM_ObservabilitySignatureThreaded is the one thread ladder: it runs the
// signature pass, the production kernel that splits across lanes, with the
// worker count as the benchmark argument.
#include <benchmark/benchmark.h>

#include "gen/random_circuit.hpp"
#include "interval/interval_set.hpp"
#include "rgraph/retiming_graph.hpp"
#include "sim/observability.hpp"
#include "sim/simulator.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"
#include "timing/elw.hpp"
#include "timing/graph_timing.hpp"

namespace {

using namespace serelin;

const Netlist& bench_netlist() {
  static const Netlist nl = [] {
    RandomCircuitSpec spec;
    spec.name = "micro";
    spec.gates = 10000;
    spec.dffs = 2500;
    spec.inputs = 32;
    spec.outputs = 32;
    spec.mean_fanin = 2.0;
    spec.seed = 777;
    return generate_random_circuit(spec);
  }();
  return nl;
}

void BM_SimFrame(benchmark::State& state) {
  const Netlist& nl = bench_netlist();
  Simulator sim(nl, static_cast<int>(state.range(0)));
  Rng rng(1);
  sim.randomize_inputs(rng);
  for (auto _ : state) {
    sim.eval_frame();
    sim.step();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(nl.gate_count()) * 64 *
                          state.range(0));
}

void BM_ObservabilityRun(benchmark::State& state) {
  const Netlist& nl = bench_netlist();
  SimConfig cfg;
  cfg.patterns = 512;
  cfg.frames = static_cast<int>(state.range(0));
  cfg.warmup = 8;
  for (auto _ : state) {
    ObservabilityAnalyzer engine(nl, cfg);
    benchmark::DoNotOptimize(engine.run());
  }
}

void BM_ObservabilitySignatureThreaded(benchmark::State& state) {
  const Netlist& nl = bench_netlist();
  SimConfig cfg;
  cfg.patterns = 2048;
  cfg.frames = 8;
  cfg.warmup = 8;
  set_execution_threads(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    ObservabilityAnalyzer engine(nl, cfg);
    benchmark::DoNotOptimize(engine.run());
  }
  set_execution_threads(0);
  state.counters["threads"] = static_cast<double>(state.range(0));
}

void BM_GraphTimingCompute(benchmark::State& state) {
  const Netlist& nl = bench_netlist();
  static CellLibrary lib;
  static RetimingGraph g(nl, lib);
  GraphTiming timing(g, {100.0, 0.0, 2.0});
  const Retiming r = g.zero_retiming();
  for (auto _ : state) {
    timing.compute(r);
    benchmark::DoNotOptimize(timing.max_after(0));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.edge_count()));
}

void BM_ExactElw(benchmark::State& state) {
  const Netlist& nl = bench_netlist();
  CellLibrary lib;
  for (auto _ : state) {
    benchmark::DoNotOptimize(compute_elw(nl, lib, {100.0, 0.0, 2.0}));
  }
}

void BM_IntervalUnion(benchmark::State& state) {
  Rng rng(3);
  for (auto _ : state) {
    IntervalSet s;
    for (int i = 0; i < 64; ++i) {
      const double lo = rng.uniform() * 100.0;
      s.insert(lo, lo + 2.0);
    }
    benchmark::DoNotOptimize(s.measure());
  }
}

}  // namespace

BENCHMARK(BM_SimFrame)->Arg(8)->Arg(32);
BENCHMARK(BM_ObservabilityRun)->Arg(4)->Arg(15)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ObservabilitySignatureThreaded)
    ->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK(BM_GraphTimingCompute);
BENCHMARK(BM_ExactElw)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_IntervalUnion);

BENCHMARK_MAIN();
