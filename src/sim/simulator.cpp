#include "sim/simulator.hpp"

#include <algorithm>

#include "support/check.hpp"
#include "support/metrics.hpp"

namespace serelin {

Simulator::Simulator(const Netlist& nl, int words) : nl_(&nl), words_(words) {
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
  for (NodeId id = 0; id < nl_->node_count(); ++id) {
    const CellType t = nl_->node(id).type;
    if (t == CellType::kConst0) {
      auto v = value(id);
      std::fill(v.begin(), v.end(), 0ULL);
    } else if (t == CellType::kConst1) {
      auto v = value(id);
      std::fill(v.begin(), v.end(), ~0ULL);
    }
  }
  // Gates in topological order, each over whole fanin rows.
  for (NodeId id : nl_->gate_order()) {
    const Node& n = nl_->node(id);
    eval_cell_rows(n.type, n.fanins, values_.data(), value(id));
  }
  SERELIN_COUNT(kSimPatternWords,
                static_cast<std::int64_t>(nl_->gate_order().size()) * words_);
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
