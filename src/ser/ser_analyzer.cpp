#include "ser/ser_analyzer.hpp"

#include <utility>

#include "support/check.hpp"
#include "support/metrics.hpp"
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

  // One term of Eq. (4) per gate and flip-flop, summed in NodeId order.
  // The sweep is serial: compute_elw above takes most of eq4's time, and
  // lanes over these few multiplications measured no faster.
  const double phi = options.timing.period;
  for (NodeId id = 0; id < nl.node_count(); ++id) {
    const Node& n = nl.node(id);
    const bool gate = is_gate(n.type);
    if (!gate && n.type != CellType::kDff) continue;
    SERELIN_COUNT(kSerTerms, 1);
    const double window =
        options.timing_masking ? report.elw.measure(id, phi) / phi : 1.0;
    const double term = report.obs[id] * lib.err(n.type) * window;
    report.contribution[id] = term;
    (gate ? report.combinational : report.sequential) += term;
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
