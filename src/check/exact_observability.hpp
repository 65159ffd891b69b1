// Exact observability by flip-and-resimulate: the reference the signature
// pass of ObservabilityAnalyzer (src/sim) is checked against.
//
// For every node g the n-frame expanded circuit is simulated once more
// with g inverted in frame 0, and O(g) is the set of patterns in which any
// observable (a primary output of any frame, or the register plane after
// the last frame) differs from the unflipped run. That is the definition
// of the paper's obs(g, n) with no first-order approximation, at one full
// resimulation per node: quadratic, so only for small circuits. It reads
// the same record_frames stimulus as the signature pass, so on fanout-free
// circuits the two agree bit for bit.
#pragma once

#include "netlist/netlist.hpp"
#include "sim/observability.hpp"
#include "sim/sim_config.hpp"

namespace serelin {

/// Per-node exact observability for `cfg`. The per-node resimulations fan
/// out over the worker pool, each writing only its own obs[v], so the
/// result is bit-identical for any thread count. Every resimulation polls
/// cfg.deadline; expiry throws CancelledError, since a partial result is
/// not a reference.
ObsResult exact_observability(const Netlist& nl, const SimConfig& cfg);

}  // namespace serelin
