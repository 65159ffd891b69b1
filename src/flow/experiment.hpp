// The end-to-end experiment flow of the paper's Section VI, packaged for
// the Table-I harness, the ablation benches and the examples. It runs the
// pipeline's stages (flow/pipeline.hpp) on one StageRunner:
//
//   1. build the retiming graph;
//   2. Section-V initialization (Φ via setup/hold-aware min-period + ε
//      relaxation, R_min from the initial short paths);
//   3. n-time-frame signature observability -> gains b(v), simulated once:
//      the same run gives the original circuit's Eq. (4) SER;
//   4. run MinObsWin (Algorithm 1) and Efficient MinObs (baseline of [17])
//      from that one initialization and one set of gains;
//   5. materialize both retimed netlists and re-analyze their SER with the
//      full Eq. (4) model ("the real size of the ELW ... with (3)").
//
// Runtimes of the two solvers are measured separately (the paper's t_ref /
// t_new columns); analysis time is reported on the side.
#pragma once

#include <limits>
#include <string>

#include "check/oracle.hpp"
#include "core/initializer.hpp"
#include "core/objective.hpp"
#include "core/solver.hpp"
#include "netlist/cell_library.hpp"
#include "netlist/netlist.hpp"
#include "rgraph/retiming_graph.hpp"
#include "ser/ser_analyzer.hpp"

namespace serelin {

struct FlowConfig {
  InitOptions init;       ///< Section-V parameters (Ts, Th, ε)
  SimConfig sim;          ///< observability simulation fidelity
  double area_weight = 0.0;  ///< §VII extension knob (0 = paper objective)
  /// Override for R_min; NaN (or negative) = use the Section-V value.
  double rmin_override = std::numeric_limits<double>::quiet_NaN();
  bool run_minobs = true;      ///< run the baseline too
  bool reanalyze_ser = true;   ///< full Eq. (4) SER on the results
  /// Run the independent RetimingOracle (src/check) on every solver
  /// result; verdicts land in AlgoOutcome::verdict. A failed verdict does
  /// not abort the experiment — Table-I harnesses report it per row.
  bool verify = false;
};

/// Results of one algorithm on one circuit (one half of a Table-I row).
struct AlgoOutcome {
  SolverResult solver;
  double seconds = 0.0;        ///< solver wall clock (t_ref / t_new)
  std::int64_t ffs = 0;        ///< flip-flops after materialization
  double dff_change = 0.0;     ///< (ffs - original) / original
  double ser = 0.0;            ///< re-analyzed SER(C_S, n)
  double dser = 0.0;           ///< (ser - original) / original
  bool verified = false;       ///< the oracle ran on this result
  Verdict verdict;             ///< its verdict (meaningful when verified)
};

/// One full Table-I row.
struct ExperimentRow {
  std::string name;
  std::size_t vertices = 0;  ///< |V| (gate count)
  std::size_t edges = 0;     ///< |E| (retiming-graph edges)
  std::int64_t ffs = 0;      ///< #FF of the original circuit
  double phi = 0.0;          ///< clock constraint Φ
  double rmin = 0.0;         ///< R_min used by MinObsWin
  bool setup_hold_ok = false;
  double ser_original = 0.0;  ///< SER of the original circuit
  AlgoOutcome minobs;     ///< "Efficient MinObs" columns
  AlgoOutcome minobswin;  ///< "MinObsWin" columns
  double analysis_seconds = 0.0;  ///< observability + SER engine time
};

/// Runs the full flow on a finalized netlist.
ExperimentRow run_experiment(const Netlist& nl, const CellLibrary& lib,
                             const FlowConfig& config);

}  // namespace serelin
