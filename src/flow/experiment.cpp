#include "flow/experiment.hpp"

#include <cmath>
#include <utility>

#include "flow/pipeline.hpp"
#include "rgraph/apply.hpp"
#include "support/check.hpp"
#include "support/stopwatch.hpp"
#include "support/trace.hpp"

namespace serelin {

ExperimentRow run_experiment(const Netlist& nl, const CellLibrary& lib,
                             const FlowConfig& config) {
  SERELIN_REQUIRE(nl.finalized(), "run_experiment needs a finalized netlist");
  SERELIN_SPAN("flow/experiment");
  PipelineOptions po;
  po.init = config.init;
  po.sim = config.sim;
  po.area_weight = config.area_weight;
  if (!std::isnan(config.rmin_override)) po.rmin = config.rmin_override;
  StageRunner runner(nl, lib, po);
  const RetimingGraph& g = runner.graph();

  ExperimentRow row;
  row.name = nl.name();
  row.vertices = g.gate_vertices().size();
  row.edges = g.edge_count();
  row.ffs = static_cast<std::int64_t>(nl.dff_count());
  row.phi = runner.timing().period;
  row.setup_hold_ok = runner.init().setup_hold_ok;
  row.rmin = runner.rmin();

  SerOptions ser;
  ser.timing = runner.timing();
  ser.sim = config.sim;
  Stopwatch analysis_watch;
  runner.gains();
  if (config.reanalyze_ser)
    row.ser_original =
        analyze_ser(nl, lib, ser, runner.observability().obs).total;
  row.analysis_seconds = analysis_watch.seconds();

  for (const PipelineStage stage :
       {PipelineStage::kMinObsWin, PipelineStage::kMinObs}) {
    if (stage == PipelineStage::kMinObs && !config.run_minobs) break;
    AlgoOutcome& out =
        stage == PipelineStage::kMinObsWin ? row.minobswin : row.minobs;
    Stopwatch watch;
    StageCandidate c = runner.solve(stage);
    out.seconds = watch.seconds();
    if (config.verify) {
      out.verdict = runner.verify(c);
      out.verified = true;
    }
    out.solver = std::move(c.result);
    out.ffs = g.shared_register_count(out.solver.r);
    out.dff_change = row.ffs > 0 ? static_cast<double>(out.ffs - row.ffs) /
                                       static_cast<double>(row.ffs)
                                 : 0.0;
    if (config.reanalyze_ser) {
      const Netlist retimed =
          apply_retiming(g, out.solver.r, nl.name() + "_rt");
      out.ser = analyze_ser(retimed, lib, ser).total;
      out.dser = row.ser_original > 0
                     ? (out.ser - row.ser_original) / row.ser_original
                     : 0.0;
    }
  }
  return row;
}

}  // namespace serelin
