// Signal observability analysis with n-time-frame expansion.
//
// Observability of a node g (paper §II-A/B) is
//     obs(g) = num_ones(O(g)) / K
// where O(g) is the observability-don't-care (ODC) mask of g over K random
// patterns: the set of patterns in which flipping g's value changes some
// observable output. Observables of the n-frame expanded circuit are every
// primary output of every frame plus the register contents after the last
// frame; a flip is injected at frame 0, so obs(g) measures how often an SEU
// at g in a typical cycle is ever seen by the environment within n cycles —
// the time-frame-expansion scheme of Krishnaswamy et al. [17].
//
// ObservabilityAnalyzer computes O(g) by backward ODC-mask propagation
// (the signature method of [11,21]):
//     O(g) = [g is PO]·1 | OR_f sens(g→f) & O(f) | cross-frame terms,
// where sens(g→f) is the local flip-propagation mask of fanout f. Linear in
// circuit size per frame; exact on fanout-free circuits, first-order
// (ignores reconvergent flip interactions) otherwise. The exact
// flip-and-resimulate reference it is checked against is
// exact_observability (src/check); both analyse the stimulus that
// record_frames records, so they see the same patterns by construction.
//
// Flip-flop nodes get an observability too (the visibility of an upset of
// their stored bit); the paper's register-observability model obs(reg) =
// obs(driving gate) is what the retiming objective uses, while the values
// computed here feed the reference SER analysis.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/sim_config.hpp"
#include "sim/simulator.hpp"

namespace serelin {

struct ObsResult {
  /// Per-node observability in [0,1], indexed by NodeId.
  std::vector<double> obs;
};

/// The stimulus of one observability analysis: the primary-input words and
/// the register plane entering each of the cfg.frames analysed frames.
struct FrameStimulus {
  /// inputs[f] holds |PI|·words words, in Netlist::inputs() order.
  std::vector<std::vector<std::uint64_t>> inputs;
  /// states[f] holds |DFF|·words words, in Netlist::dffs() order.
  std::vector<std::vector<std::uint64_t>> states;

  /// Copies frame `frame`'s primary-input words into `sim`'s value plane.
  void load_inputs(int frame, Simulator& sim) const;
};

/// Simulates cfg.warmup random cycles from the all-zero state, then
/// records the inputs and register state of cfg.frames further random
/// cycles. Deterministic for a fixed config (the patterns come from
/// cfg.seed alone).
FrameStimulus record_frames(const Netlist& nl, const SimConfig& cfg);

class ObservabilityAnalyzer {
 public:
  ObservabilityAnalyzer(const Netlist& nl, SimConfig cfg);

  /// Records the stimulus, then runs the backward ODC pass over it.
  /// Deterministic for a fixed config; an expired cfg.deadline throws
  /// CancelledError.
  ObsResult run();

 private:
  ObsResult run_signature(const FrameStimulus& stim) const;

  const Netlist* nl_;
  SimConfig cfg_;
  int words_;
};

}  // namespace serelin
