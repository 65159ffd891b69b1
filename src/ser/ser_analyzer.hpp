// Circuit soft-error-rate analysis: the paper's Eq. (4).
//
//   SER(C_S, n) =   Σ_{g ∈ Comb} obs(g,n) · err(g) · |ELW(g)|/Φ
//                 + Σ_{r ∈ Reg}  obs(r,n) · err(r) · |ELW(r)|/Φ
//
// obs comes from n-time-frame signature simulation (src/sim), err from the
// cell library characterization, and ELW from the exact interval
// computation (src/timing/elw). With timing masking disabled the ELW factor
// is dropped, which recovers the logic-masking-only SER of [17] (the model
// the MinObs baseline optimizes).
//
// This analyzer is the *evaluation* path of the reproduction: the paper
// evaluates every retimed circuit with "the real size of the ELW for each
// gate with (3)", i.e. exactly this computation on the materialized
// netlist.
#pragma once

#include <vector>

#include "netlist/cell_library.hpp"
#include "netlist/netlist.hpp"
#include "sim/observability.hpp"
#include "timing/elw.hpp"
#include "timing/params.hpp"

namespace serelin {

struct SerOptions {
  TimingParams timing;
  SimConfig sim;
  /// Apply the |ELW|/Φ timing-masking factor of Eq. (4). When false the
  /// analysis reduces to the logic-masking-only model of [17].
  bool timing_masking = true;
};

struct SerReport {
  double total = 0.0;       ///< SER(C_S, n)
  double combinational = 0.0;  ///< gate term of Eq. (4)
  double sequential = 0.0;     ///< register term of Eq. (4)
  std::vector<double> contribution;  ///< per-node SER share (NodeId-indexed)
  std::vector<double> obs;           ///< per-node observability
  ElwResult elw;                     ///< per-node error-latching windows
};

/// Analyzes a finalized netlist. Deterministic for fixed options.
SerReport analyze_ser(const Netlist& nl, const CellLibrary& lib,
                      const SerOptions& options);

/// Same, from an observability already simulated for `nl` (NodeId-indexed,
/// e.g. the run the retiming gains came from) instead of simulating again;
/// `options.sim` is unused. Eq. (4) needs only per-node observability,
/// error rates and windows, so feeding the ObsResult of
/// ObservabilityAnalyzer(nl, options.sim).run() gives the bit-identical
/// report.
SerReport analyze_ser(const Netlist& nl, const CellLibrary& lib,
                      const SerOptions& options, std::vector<double> obs);

}  // namespace serelin
