// Word-parallel functional simulation of a sequential netlist.
//
// Values are bit-vectors of K patterns packed 64 per word: signature
// simulation in the sense of Krishnaswamy et al. [11,21]. One Simulator
// instance owns the value plane (node_count × words uint64) and a register
// state plane (dff_count × words).
//
// A *frame* evaluates the one-cycle combinational network: flip-flop nodes
// take their stored state, primary inputs take caller-provided (usually
// random) words, gates evaluate in topological order. step() then captures
// every flip-flop's D-driver value as the next state.
//
// Gates evaluate row by row (eval_cell_rows, netlist/cell): one type switch
// per gate, then each fanin's whole row of words is folded into the gate's
// row with &=, |= or ^=, so the inner loop is a straight word sweep with no
// per-word fanin gather.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/sim_config.hpp"
#include "support/rng.hpp"

namespace serelin {

class Simulator {
 public:
  Simulator(const Netlist& nl, int words);

  const Netlist& netlist() const { return *nl_; }
  int words() const { return words_; }

  /// Mutable view of the value words of `node` (valid after eval_frame for
  /// non-source nodes; inputs/states are set by the caller / frame logic).
  std::span<std::uint64_t> value(NodeId node) {
    return {values_.data() + static_cast<std::size_t>(node) * words_,
            static_cast<std::size_t>(words_)};
  }
  std::span<const std::uint64_t> value(NodeId node) const {
    return {values_.data() + static_cast<std::size_t>(node) * words_,
            static_cast<std::size_t>(words_)};
  }

  /// Current register state of the i-th flip-flop (order of netlist.dffs()).
  std::span<std::uint64_t> state(std::size_t dff_index) {
    return {state_.data() + dff_index * words_,
            static_cast<std::size_t>(words_)};
  }
  std::span<const std::uint64_t> state(std::size_t dff_index) const {
    return {state_.data() + dff_index * words_,
            static_cast<std::size_t>(words_)};
  }

  /// Sets every register word to zero (power-on state).
  void reset_state();

  /// Overwrites the whole state plane (size dff_count*words).
  void load_state(std::span<const std::uint64_t> state);
  std::span<const std::uint64_t> state_plane() const { return state_; }

  /// Fills every primary-input word with fresh random bits from `rng`.
  void randomize_inputs(Rng& rng);

  /// Evaluates one combinational frame from the current inputs and state:
  /// flip-flop node values := stored state, then gates in topological order.
  void eval_frame();

  /// Latches D-driver values into the register state (the clock edge).
  void step();

 private:
  const Netlist* nl_;
  int words_;
  std::vector<std::uint64_t> values_;  // node plane
  std::vector<std::uint64_t> state_;   // dff plane
};

}  // namespace serelin
