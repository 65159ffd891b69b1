#include "gen/random_circuit.hpp"

#include <algorithm>
#include <vector>

#include "support/check.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

namespace serelin {

namespace {

CellType pick_unary(Rng& rng) {
  return rng.chance(0.7) ? CellType::kNot : CellType::kBuf;
}

CellType pick_nary(Rng& rng, double xor_share) {
  if (rng.chance(xor_share))
    return rng.chance(0.5) ? CellType::kXor : CellType::kXnor;
  const double x = rng.uniform();
  if (x < 0.35) return CellType::kNand;
  if (x < 0.63) return CellType::kNor;
  if (x < 0.82) return CellType::kAnd;
  return CellType::kOr;
}

}  // namespace

Netlist generate_random_circuit(const RandomCircuitSpec& spec) {
  SERELIN_REQUIRE(spec.gates >= 1 && spec.inputs >= 1 && spec.outputs >= 1,
                  "spec needs at least one gate, input and output");
  SERELIN_REQUIRE(spec.dffs >= 0, "negative flip-flop count");
  SERELIN_REQUIRE(spec.mean_fanin >= 1.0 && spec.mean_fanin <= 3.0,
                  "mean_fanin must lie in [1,3]");
  Rng rng(spec.seed ^ 0x9e3779b97f4a7c15ULL);

  // Plan the structure in flat arrays first (repairs are easier before the
  // netlist is built). Planned ids: inputs [0, I), dffs [I, I+D), gates
  // [I+D, I+D+G).
  const int I = spec.inputs;
  const int D = spec.dffs;
  const int G = spec.gates;
  const int total = I + D + G;

  std::vector<CellType> type(static_cast<std::size_t>(total));
  std::vector<std::vector<int>> fanin(static_cast<std::size_t>(total));
  std::vector<int> uses(static_cast<std::size_t>(total), 0);

  for (int i = 0; i < I; ++i) type[i] = CellType::kInput;
  for (int d = 0; d < D; ++d) type[I + d] = CellType::kDff;

  // Gates: choose arity from the mean, wire fanins with locality bias.
  // Flip-flops get consumed two ways: *pipeline* registers are inserted
  // inline on local (chain) fanins — this is what keeps long logic chains
  // register-crossed, like real pipelined datapaths — and the remaining
  // *state* registers feed gates directly, with their D inputs assigned to
  // random gates afterwards (feedback). Both paths keep the post-hoc
  // repair pass (which would perturb the edge count) small.
  std::vector<int> dff_driver(static_cast<std::size_t>(D), -1);
  std::vector<int> state_dffs(static_cast<std::size_t>(D));
  for (int d = 0; d < D; ++d) state_dffs[d] = I + d;
  for (int d = D - 1; d > 0; --d)
    std::swap(state_dffs[d], state_dffs[rng.below(static_cast<std::uint64_t>(d) + 1)]);
  std::size_t next_dff = 0;
  const double expected_pins = spec.mean_fanin * G;
  const double dff_share =
      expected_pins > 0 ? std::min(0.5, 1.25 * D / expected_pins) : 0.0;

  for (int g = 0; g < G; ++g) {
    const int id = I + D + g;
    int arity;
    if (spec.mean_fanin <= 2.0) {
      arity = rng.chance(2.0 - spec.mean_fanin) ? 1 : 2;
    } else {
      arity = rng.chance(spec.mean_fanin - 2.0) ? 3 : 2;
    }
    type[id] = arity == 1 ? pick_unary(rng) : pick_nary(rng, spec.xor_share);
    auto& fi = fanin[id];
    for (int k = 0; k < arity; ++k) {
      int src;
      for (int attempt = 0;; ++attempt) {
        if (g > 0 && rng.chance(spec.locality)) {
          const int lo = std::max(0, g - spec.window);
          src = I + D + static_cast<int>(rng.range(lo, g - 1));
          if (next_dff < state_dffs.size() && rng.chance(spec.pipeline_prob)) {
            // Insert a pipeline register on this chain hop.
            const int pipe = state_dffs[next_dff];
            if (dff_driver[pipe - I] < 0) {
              dff_driver[pipe - I] = src;
              ++uses[src];
              ++next_dff;
              src = pipe;
            }
          }
        } else if (next_dff < state_dffs.size() && rng.chance(dff_share)) {
          src = state_dffs[next_dff++];  // consume a state register
        } else if (g > 0) {
          src = static_cast<int>(rng.below(static_cast<std::uint64_t>(I + D + g)));
        } else {
          src = static_cast<int>(rng.below(static_cast<std::uint64_t>(I)));
        }
        if (attempt >= 4 ||
            std::find(fi.begin(), fi.end(), src) == fi.end())
          break;
      }
      fi.push_back(src);
      ++uses[src];
    }
  }

  // Remaining flip-flop D inputs: mostly gates (feedback), occasionally a
  // chain to a lower-indexed flip-flop (never a cycle of registers).
  for (int d = 0; d < D; ++d) {
    if (dff_driver[d] >= 0) continue;  // pipeline register, already driven
    if (d > 0 && dff_driver[d - 1] >= 0 && rng.chance(spec.dff_chain_prob)) {
      dff_driver[d] = I + d - 1;
    } else {
      dff_driver[d] =
          I + D + static_cast<int>(rng.below(static_cast<std::uint64_t>(G)));
    }
    ++uses[dff_driver[d]];
  }

  // Primary outputs: a sample of distinct late gates (late = deep logic).
  std::vector<char> is_po(static_cast<std::size_t>(total), 0);
  {
    int marked = 0;
    const int lo = G > 4 * spec.outputs ? G - 4 * spec.outputs : 0;
    for (int attempt = 0; marked < spec.outputs && attempt < 64 * spec.outputs;
         ++attempt) {
      const int id = I + D + static_cast<int>(rng.range(lo, G - 1));
      if (is_po[id]) continue;
      is_po[id] = 1;
      ++uses[id];
      ++marked;
    }
  }

  // Repair pass: rewire a pin of a later gate to consume each unused
  // signal. Stealing a pin whose current source has other uses keeps the
  // total pin count (and so the edge statistics) exact; when no such pin
  // exists the signal becomes a primary output instead.
  auto steal_pin = [&](int id, int first_consumer) -> bool {
    for (int attempt = 0; attempt < 24; ++attempt) {
      if (first_consumer >= G) break;
      const int c =
          I + D + static_cast<int>(rng.range(first_consumer, G - 1));
      auto& pins = fanin[c];
      for (std::size_t k = 0; k < pins.size(); ++k) {
        const int old = pins[k];
        if (old == id || uses[old] < 2) continue;
        if (std::find(pins.begin(), pins.end(), id) != pins.end()) break;
        --uses[old];
        pins[k] = id;
        ++uses[id];
        return true;
      }
    }
    return false;
  };
  for (int g = G - 1; g >= 0; --g) {
    const int id = I + D + g;
    if (uses[id] > 0) continue;
    if (!steal_pin(id, g + 1)) {
      is_po[id] = 1;
      ++uses[id];
    }
  }
  for (int d = 0; d < D; ++d) {
    const int id = I + d;
    if (uses[id] > 0) continue;
    if (!steal_pin(id, 0)) is_po[id] = 1;  // register observed directly
  }

  // Materialize the netlist. Planned ids coincide with NodeIds because we
  // add nodes in planned order and DFF inputs are patched afterwards.
  Netlist nl(spec.name);
  for (int i = 0; i < I; ++i)
    nl.add_node("pi" + std::to_string(i), CellType::kInput, {});
  for (int d = 0; d < D; ++d)
    nl.add_node("ff" + std::to_string(d), CellType::kDff, {kNullNode});
  for (int g = 0; g < G; ++g) {
    const int id = I + D + g;
    std::vector<NodeId> fi(fanin[id].begin(), fanin[id].end());
    nl.add_node(numbered("g", g), type[id], std::move(fi));
  }
  for (int d = 0; d < D; ++d)
    nl.set_dff_input(static_cast<NodeId>(I + d),
                     static_cast<NodeId>(dff_driver[d]));
  for (int id = 0; id < total; ++id)
    if (is_po[id]) nl.mark_output(static_cast<NodeId>(id));
  nl.finalize();
  return nl;
}

const char* generator_mode_name(GeneratorMode mode) {
  switch (mode) {
    case GeneratorMode::kUniform: return "uniform";
    case GeneratorMode::kSkewedFanin: return "skewed-fanin";
    case GeneratorMode::kRegisterDense: return "register-dense";
    case GeneratorMode::kNearCritical: return "near-critical";
  }
  return "unknown";
}

std::optional<GeneratorMode> parse_generator_mode(std::string_view name) {
  for (int m = 0; m < kNumGeneratorModes; ++m) {
    const auto mode = static_cast<GeneratorMode>(m);
    if (name == generator_mode_name(mode)) return mode;
  }
  return std::nullopt;
}

RandomCircuitSpec random_spec(GeneratorMode mode, Rng& rng,
                              const SpecRanges& ranges) {
  SERELIN_REQUIRE(ranges.min_gates >= 1 && ranges.max_gates >= ranges.min_gates,
                  "spec ranges need 1 <= min_gates <= max_gates");
  RandomCircuitSpec spec;
  const int gates =
      static_cast<int>(rng.range(ranges.min_gates, ranges.max_gates));
  spec.gates = gates;
  spec.name = std::string("fuzz-") + generator_mode_name(mode);
  spec.inputs = 2 + static_cast<int>(rng.range(0, 4));
  spec.outputs = 1 + static_cast<int>(rng.range(0, 3));
  spec.seed = rng.next();
  switch (mode) {
    case GeneratorMode::kUniform:
      spec.dffs = std::max(1, gates / static_cast<int>(rng.range(2, 6)));
      spec.mean_fanin = 1.2 + 1.6 * rng.uniform();
      spec.locality = 0.3 + 0.6 * rng.uniform();
      spec.window = 4 + static_cast<int>(rng.range(0, 24));
      spec.dff_chain_prob = 0.2 * rng.uniform();
      spec.xor_share = 0.5 * rng.uniform();
      spec.pipeline_prob = 0.2 + 0.4 * rng.uniform();
      break;
    case GeneratorMode::kSkewedFanin:
      // Fanin pinned near the cap with a tiny reuse window: a few hub
      // signals collect most of the fanout, so W/D rows are wide and the
      // forest sees many simultaneous dependency sources.
      spec.dffs = std::max(1, gates / 4);
      spec.mean_fanin = 2.7 + 0.3 * rng.uniform();
      spec.locality = 0.85 + 0.1 * rng.uniform();
      spec.window = 2 + static_cast<int>(rng.range(0, 3));
      spec.dff_chain_prob = 0.05;
      spec.xor_share = 0.3 * rng.uniform();
      spec.pipeline_prob = 0.25 + 0.25 * rng.uniform();
      break;
    case GeneratorMode::kRegisterDense:
      // As many registers as the pin budget supports: big movable register
      // populations, long shift chains, busy ELW interval sets.
      spec.dffs = std::max(2, gates - static_cast<int>(rng.range(0, 4)));
      spec.mean_fanin = 1.4 + 0.8 * rng.uniform();
      spec.locality = 0.5 + 0.3 * rng.uniform();
      spec.window = 6 + static_cast<int>(rng.range(0, 10));
      spec.dff_chain_prob = 0.3 + 0.3 * rng.uniform();
      spec.xor_share = 0.4 * rng.uniform();
      spec.pipeline_prob = 0.6 + 0.3 * rng.uniform();
      break;
    case GeneratorMode::kNearCritical:
      // Deep unpipelined chains: the unretimed critical path dominates,
      // Φ sits near it after the Section-V relaxation, and the period /
      // ELW constraints bind on most candidate moves.
      spec.dffs = std::max(1, gates / 8);
      spec.mean_fanin = 1.1 + 0.5 * rng.uniform();
      spec.locality = 0.92 + 0.07 * rng.uniform();
      spec.window = 2 + static_cast<int>(rng.range(0, 2));
      spec.dff_chain_prob = 0.05;
      spec.xor_share = 0.2 * rng.uniform();
      spec.pipeline_prob = 0.05 + 0.1 * rng.uniform();
      break;
  }
  return spec;
}

}  // namespace serelin
