#include "core/min_area.hpp"

namespace serelin {

ObsGains area_gains(const RetimingGraph& g) {
  ObsGains gains;
  gains.patterns = 1;
  gains.vertex_obs.assign(g.vertex_count(), 0);
  gains.gain.assign(g.vertex_count(), 0);
  for (VertexId v = 0; v < g.vertex_count(); ++v) {
    if (g.vertex(v).kind != VertexKind::kSink) gains.vertex_obs[v] = 1;
    if (!g.movable(v)) continue;
    gains.gain[v] = static_cast<std::int64_t>(g.in_edges(v).size()) -
                    static_cast<std::int64_t>(g.out_edges(v).size());
  }
  return gains;
}

MinAreaResult min_area_retime(const RetimingGraph& g,
                              const TimingParams& timing,
                              const Retiming& initial, double rmin,
                              const Deadline& deadline) {
  const ObsGains gains = area_gains(g);
  SolverOptions options;
  options.timing = timing;
  options.rmin = rmin;
  options.enforce_elw = rmin > 0.0;
  options.deadline = deadline;
  MinObsWinSolver solver(g, gains, options);

  MinAreaResult out;
  out.positions_before = g.total_edge_registers(initial);
  out.ffs_before = g.shared_register_count(initial);
  out.solver = solver.solve(initial);
  out.positions_after = g.total_edge_registers(out.solver.r);
  out.ffs_after = g.shared_register_count(out.solver.r);
  return out;
}

}  // namespace serelin
