// Deterministic input-corruption engine for robustness testing.
//
// mutate_text() applies seeded random damage of the kinds real inputs
// arrive with — truncated downloads, binary garbage, encoding damage,
// editor accidents (duplicated/deleted/swapped lines), and plain typos —
// to a serialized netlist. The faults campaign (tools/serelin_campaign.cpp)
// and the robustness tests feed the damaged text through parse → lint →
// retime and assert the taxonomy: every outcome is a clean diagnostic, a
// typed exception, or a Partial result; never a crash, hang, or silent
// wrong answer.
//
// All randomness flows through the caller's Rng, so a (seed, iteration)
// pair fully reproduces any failure.
#pragma once

#include <string>

#include "netlist/netlist.hpp"
#include "support/rng.hpp"

namespace serelin {

struct MutateOptions {
  /// Number of independent corruptions applied per call is drawn
  /// uniformly from [1, max_mutations].
  int max_mutations = 4;
};

/// Returns `text` with seeded random corruption applied: byte flips,
/// truncation, line deletion/duplication/swaps, garbage and non-ASCII
/// insertion, and structural-character typos ('(', ')', '=', ',').
std::string mutate_text(std::string text, Rng& rng,
                        const MutateOptions& opt = {});

/// Generates a small random victim circuit (bounded size, valid by
/// construction) whose serialization the harness corrupts. Deterministic
/// in the rng state.
Netlist random_victim(Rng& rng);

}  // namespace serelin
