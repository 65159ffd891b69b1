// Materializing a retiming: rebuild a netlist from a retiming graph and a
// retiming label.
//
// Registers are instantiated with the fanout-sharing model: all registers at
// a driver's output form one chain `drv$1, drv$2, ...` and each consumer
// taps the chain at its edge's register depth w_r. This is the structure
// whose flip-flop count RetimingGraph::shared_register_count() predicts.
//
// Initial states: the rebuilt flip-flops are implicitly zero-initialized
// (.bench carries no initial-state syntax). A retiming generally requires a
// *computed* equivalent initial state; forward retimings (r <= 0, the only
// kind serelin's optimizers produce) admit one constructively — see
// decompose_forward() in src/check/graph_sim.hpp.
#pragma once

#include <string>

#include "rgraph/retiming_graph.hpp"

namespace serelin {

/// Rebuilds the circuit of `g` with registers relocated per `r`.
/// Requires g.valid(r). Primary-output port names follow the tapped signal
/// (the original PO name is kept only when no register crosses the PO).
Netlist apply_retiming(const RetimingGraph& g, const Retiming& r,
                       std::string circuit_name);

}  // namespace serelin
