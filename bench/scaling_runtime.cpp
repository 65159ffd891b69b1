// Runtime scaling of the two solvers (the paper's t_ref / t_new columns):
// Efficient MinObs vs MinObsWin on growing circuits. The paper reports
// MinObsWin ≈ 2.5× slower on average (the extra P2' detection work) with
// both inheriting O(|E|) memory from the regular forest.
#include <benchmark/benchmark.h>

#include <map>

#include "core/initializer.hpp"
#include "core/objective.hpp"
#include "core/solver.hpp"
#include "gen/random_circuit.hpp"
#include "sim/observability.hpp"

namespace {

using namespace serelin;

struct Instance {
  Netlist nl;
  CellLibrary lib;
  RetimingGraph graph;
  InitResult init;
  ObsGains gains;

  explicit Instance(int gates)
      : nl(make_netlist(gates)), graph(nl, lib) {
    init = initialize_retiming(graph, {});
    SimConfig cfg;
    cfg.patterns = 512;
    cfg.frames = 6;
    ObservabilityAnalyzer engine(nl, cfg);
    gains = compute_gains(graph, engine.run().obs, cfg.patterns);
  }

  static Netlist make_netlist(int gates) {
    RandomCircuitSpec spec;
    spec.name = "scale" + std::to_string(gates);
    spec.gates = gates;
    spec.dffs = gates / 4;
    spec.inputs = 16;
    spec.outputs = 16;
    spec.mean_fanin = 2.0;
    spec.seed = 4242 + static_cast<std::uint64_t>(gates);
    return generate_random_circuit(spec);
  }
};

Instance& instance(int gates) {
  static std::map<int, Instance> cache;
  auto it = cache.find(gates);
  if (it == cache.end()) it = cache.try_emplace(gates, gates).first;
  return it->second;
}

void BM_MinObs(benchmark::State& state) {
  Instance& inst = instance(static_cast<int>(state.range(0)));
  SolverOptions opt;
  opt.timing = inst.init.timing;
  opt.rmin = inst.init.rmin;
  opt.enforce_elw = false;
  MinObsWinSolver solver(inst.graph, inst.gains, opt);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(inst.init.r));
  }
  state.counters["|V|"] = static_cast<double>(inst.graph.gate_vertices().size());
  state.counters["|E|"] = static_cast<double>(inst.graph.edge_count());
}

void BM_MinObsWin(benchmark::State& state) {
  Instance& inst = instance(static_cast<int>(state.range(0)));
  SolverOptions opt;
  opt.timing = inst.init.timing;
  opt.rmin = inst.init.rmin;
  opt.enforce_elw = true;
  MinObsWinSolver solver(inst.graph, inst.gains, opt);
  for (auto _ : state) {
    benchmark::DoNotOptimize(solver.solve(inst.init.r));
  }
  state.counters["|V|"] = static_cast<double>(inst.graph.gate_vertices().size());
}

void BM_Initialization(benchmark::State& state) {
  Instance& inst = instance(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(initialize_retiming(inst.graph, {}));
  }
}

}  // namespace

BENCHMARK(BM_MinObs)->Arg(1000)->Arg(4000)->Arg(16000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MinObsWin)->Arg(1000)->Arg(4000)->Arg(16000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Initialization)->Arg(4000)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
