#include "ser/ser_analyzer.hpp"

#include <algorithm>
#include <utility>

#include "support/check.hpp"
#include "support/metrics.hpp"
#include "support/parallel.hpp"
#include "support/trace.hpp"

namespace serelin {

namespace {

void require_period(const SerOptions& options) {
  SERELIN_REQUIRE(options.timing.period > 0.0,
                  "SER analysis needs a positive clock period");
}

/// Eq. (4) over a per-node observability.
SerReport eq4(const Netlist& nl, const CellLibrary& lib,
              const SerOptions& options, std::vector<double> obs) {
  SERELIN_REQUIRE(obs.size() == nl.node_count(),
                  "SER analysis needs one observability per node");
  SerReport report;
  report.obs = std::move(obs);
  report.elw = compute_elw(nl, lib, options.timing);
  report.contribution.assign(nl.node_count(), 0.0);

  // Per-gate terms of Eq. (4) are independent: each iteration writes only
  // contribution[id]. The comb/seq reduction happens afterwards in fixed
  // NodeId order so the floating-point sums are bit-identical for any
  // thread count.
  const double phi = options.timing.period;
  const std::size_t grain = std::max<std::size_t>(
      64, nl.node_count() / (static_cast<std::size_t>(parallel_workers()) *
                             8));
  parallel_for(0, nl.node_count(), grain, [&](std::size_t idx, int) {
    const NodeId id = static_cast<NodeId>(idx);
    const Node& n = nl.node(id);
    if (!is_gate(n.type) && n.type != CellType::kDff) return;
    SERELIN_COUNT(kSerTerms, 1);
    const double err = lib.err(n.type);
    const double window =
        options.timing_masking ? report.elw.measure(id, phi) / phi : 1.0;
    report.contribution[id] = report.obs[id] * err * window;
  });
  for (NodeId id = 0; id < nl.node_count(); ++id) {
    const Node& n = nl.node(id);
    if (is_gate(n.type))
      report.combinational += report.contribution[id];
    else if (n.type == CellType::kDff)
      report.sequential += report.contribution[id];
  }
  report.total = report.combinational + report.sequential;
  return report;
}

}  // namespace

SerReport analyze_ser(const Netlist& nl, const CellLibrary& lib,
                      const SerOptions& options) {
  SERELIN_SPAN("ser/analyze");
  require_period(options);
  return eq4(nl, lib, options,
             ObservabilityAnalyzer(nl, options.sim).run().obs);
}

SerReport analyze_ser(const Netlist& nl, const CellLibrary& lib,
                      const SerOptions& options, std::vector<double> obs) {
  SERELIN_SPAN("ser/analyze");
  require_period(options);
  return eq4(nl, lib, options, std::move(obs));
}

}  // namespace serelin
