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
// The constructor compiles the netlist once into a GateProgram: the gates
// in topological order as parallel arrays of node id and cell type, their
// fanins as one CSR list, and the constant nodes. Both sweeps of an
// observability run walk it — eval_frame forward here, the ODC push
// backward in sim/observability — so no sweep touches a Node. Each gate
// evaluates row by row (eval_cell_rows): one type switch, then a straight
// word sweep per pass that folds up to three fanin rows and the output
// complement, so the inner loop vectorizes.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "netlist/netlist.hpp"
#include "sim/sim_config.hpp"
#include "support/rng.hpp"

namespace serelin {

/// The combinational network of a netlist, compiled for row sweeps. Gate k
/// (k < gates(), topological order) writes node[k] with cell type type[k]
/// from the rows fanins(k), pin order kept; const0 and const1 list the
/// constant nodes. Built in O(gates + pins).
struct GateProgram {
  explicit GateProgram(const Netlist& nl);

  std::size_t gates() const { return node.size(); }
  std::span<const NodeId> fanins(std::size_t k) const {
    return {fanin.data() + first[k], first[k + 1] - first[k]};
  }

  std::vector<NodeId> node;
  std::vector<CellType> type;
  /// Gate k reads fanin[first[k]] .. fanin[first[k+1] - 1].
  std::vector<std::size_t> first;
  std::vector<NodeId> fanin;
  std::vector<NodeId> const0;
  std::vector<NodeId> const1;
};

/// Row evaluation: eval_cell over whole fanin rows at once. Row i of
/// `plane` is the out.size() words starting at plane[i·out.size()], and
/// fanin k reads row fanins[k]; out[w] = eval_cell(type, {word w of each
/// fanin row}). One type switch per gate; the first pass folds up to
/// three rows (`out[w] = a[w] op b[w] op c[w]`), each further row folds
/// in with its own pass, and the last pass also complements for
/// NOT/NAND/NOR/XNOR. Gates only (is_gate(type)): the simulator sets
/// inputs, flip-flops and constants itself. `out` must not overlap a
/// fanin row.
void eval_cell_rows(CellType type, std::span<const NodeId> fanins,
                    const std::uint64_t* plane, std::span<std::uint64_t> out);

class Simulator {
 public:
  Simulator(const Netlist& nl, int words);

  const Netlist& netlist() const { return *nl_; }
  int words() const { return words_; }

  /// The compiled gate program every frame walks.
  const GateProgram& program() const { return program_; }

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
  /// flip-flop node values := stored state, constants := their value, then
  /// the gate program in order.
  void eval_frame();

  /// Latches D-driver values into the register state (the clock edge).
  void step();

 private:
  const Netlist* nl_;
  int words_;
  GateProgram program_;
  std::vector<std::uint64_t> values_;  // node plane
  std::vector<std::uint64_t> state_;   // dff plane
};

}  // namespace serelin
