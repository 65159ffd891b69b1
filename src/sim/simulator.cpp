#include "sim/simulator.hpp"

#include <algorithm>
#include <functional>

#include "support/check.hpp"
#include "support/metrics.hpp"

namespace serelin {

namespace {

/// Folds the rows of `fanins` into `out` with `op`, complementing with
/// `inv` (all ones or zero) on the pass that writes `out` last. The first
/// pass reads up to three rows, so arity-2 and arity-3 gates take a single
/// sweep; each word loop is straight-line and vectorizes.
template <typename Op>
void fold_rows(Op op, std::span<const NodeId> fanins,
               const std::uint64_t* plane, std::span<std::uint64_t> out,
               std::uint64_t inv) {
  const std::size_t words = out.size();
  const std::size_t n = fanins.size();
  const auto row = [&](std::size_t k) {
    return plane + static_cast<std::size_t>(fanins[k]) * words;
  };
  std::uint64_t* o = out.data();
  const std::uint64_t* a = row(0);
  if (n == 1) {
    for (std::size_t w = 0; w < words; ++w) o[w] = a[w] ^ inv;
    return;
  }
  const std::uint64_t* b = row(1);
  if (n == 2) {
    for (std::size_t w = 0; w < words; ++w) o[w] = op(a[w], b[w]) ^ inv;
    return;
  }
  const std::uint64_t* c = row(2);
  const std::uint64_t last3 = n == 3 ? inv : 0ULL;
  for (std::size_t w = 0; w < words; ++w)
    o[w] = op(op(a[w], b[w]), c[w]) ^ last3;
  for (std::size_t k = 3; k < n; ++k) {
    const std::uint64_t* x = row(k);
    const std::uint64_t last = k + 1 == n ? inv : 0ULL;
    for (std::size_t w = 0; w < words; ++w) o[w] = op(o[w], x[w]) ^ last;
  }
}

}  // namespace

GateProgram::GateProgram(const Netlist& nl) : node(nl.gate_order()) {
  type.reserve(node.size());
  first.reserve(node.size() + 1);
  first.push_back(0);
  for (const NodeId id : node) {
    const Node& n = nl.node(id);
    type.push_back(n.type);
    fanin.insert(fanin.end(), n.fanins.begin(), n.fanins.end());
    first.push_back(fanin.size());
  }
  for (NodeId id = 0; id < nl.node_count(); ++id) {
    if (nl.node(id).type == CellType::kConst0) const0.push_back(id);
    if (nl.node(id).type == CellType::kConst1) const1.push_back(id);
  }
}

void eval_cell_rows(CellType type, std::span<const NodeId> fanins,
                    const std::uint64_t* plane, std::span<std::uint64_t> out) {
  SERELIN_ASSERT(is_gate(type), "eval_cell_rows on a non-gate node");
  const std::uint64_t inv =
      type == CellType::kNot || type == CellType::kNand ||
              type == CellType::kNor || type == CellType::kXnor
          ? ~0ULL
          : 0ULL;
  switch (type) {
    case CellType::kAnd:
    case CellType::kNand:
      fold_rows(std::bit_and<>{}, fanins, plane, out, inv);
      break;
    case CellType::kOr:
    case CellType::kNor:
      fold_rows(std::bit_or<>{}, fanins, plane, out, inv);
      break;
    default:  // kXor, kXnor; kBuf, kNot have one fanin, which no op reads
      fold_rows(std::bit_xor<>{}, fanins, plane, out, inv);
      break;
  }
}

Simulator::Simulator(const Netlist& nl, int words)
    : nl_(&nl), words_(words), program_(nl) {
  SERELIN_REQUIRE(nl.finalized(), "Simulator needs a finalized netlist");
  SERELIN_REQUIRE(words > 0, "need at least one simulation word");
  values_.assign(nl.node_count() * static_cast<std::size_t>(words), 0);
  state_.assign(nl.dff_count() * static_cast<std::size_t>(words), 0);
}

void Simulator::reset_state() {
  std::fill(state_.begin(), state_.end(), 0);
}

void Simulator::load_state(std::span<const std::uint64_t> state) {
  SERELIN_REQUIRE(state.size() == state_.size(),
                  "state plane size mismatch");
  std::copy(state.begin(), state.end(), state_.begin());
}

void Simulator::randomize_inputs(Rng& rng) {
  for (NodeId id : nl_->inputs()) {
    auto v = value(id);
    for (auto& w : v) w = rng.next();
  }
}

void Simulator::eval_frame() {
  // Sources: flip-flops read their state; constants are rewritten each
  // frame (cheap and keeps the plane consistent after load_state).
  const auto& dffs = nl_->dffs();
  for (std::size_t i = 0; i < dffs.size(); ++i) {
    auto dst = value(dffs[i]);
    auto src = state(i);
    std::copy(src.begin(), src.end(), dst.begin());
  }
  for (const NodeId id : program_.const0) std::ranges::fill(value(id), 0ULL);
  for (const NodeId id : program_.const1) std::ranges::fill(value(id), ~0ULL);
  // Gates in topological order, each over whole fanin rows.
  for (std::size_t k = 0; k < program_.gates(); ++k)
    eval_cell_rows(program_.type[k], program_.fanins(k), values_.data(),
                   value(program_.node[k]));
  SERELIN_COUNT(kSimPatternWords,
                static_cast<std::int64_t>(program_.gates()) * words_);
}

void Simulator::step() {
  const auto& dffs = nl_->dffs();
  for (std::size_t i = 0; i < dffs.size(); ++i) {
    const NodeId driver = nl_->node(dffs[i]).fanins[0];
    auto src = value(driver);
    auto dst = state(i);
    std::copy(src.begin(), src.end(), dst.begin());
  }
}

}  // namespace serelin
