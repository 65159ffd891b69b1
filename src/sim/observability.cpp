#include "sim/observability.hpp"

#include <algorithm>
#include <bit>

#include "support/check.hpp"
#include "support/parallel.hpp"
#include "support/trace.hpp"

namespace serelin {

namespace {

double popcount_fraction(std::span<const std::uint64_t> mask, int patterns) {
  std::int64_t ones = 0;
  for (std::uint64_t w : mask) ones += std::popcount(w);
  return static_cast<double>(ones) / patterns;
}

}  // namespace

void FrameStimulus::load_inputs(int frame, Simulator& sim) const {
  const auto& in = inputs[static_cast<std::size_t>(frame)];
  const std::size_t words = static_cast<std::size_t>(sim.words());
  const auto& pis = sim.netlist().inputs();
  for (std::size_t p = 0; p < pis.size(); ++p) {
    auto dst = sim.value(pis[p]);
    std::copy(in.begin() + static_cast<std::ptrdiff_t>(p * words),
              in.begin() + static_cast<std::ptrdiff_t>((p + 1) * words),
              dst.begin());
  }
}

FrameStimulus record_frames(const Netlist& nl, const SimConfig& cfg) {
  SERELIN_SPAN("obs/record");
  SERELIN_REQUIRE(cfg.frames > 0, "need at least one time frame");
  const int words = cfg.words();
  Rng rng(cfg.seed);
  Simulator sim(nl, words);
  sim.reset_state();
  sim.run_random_cycles(cfg.warmup, rng);

  FrameStimulus stim;
  stim.inputs.assign(cfg.frames, {});
  stim.states.assign(cfg.frames, {});
  for (int f = 0; f < cfg.frames; ++f) {
    auto& in = stim.inputs[f];
    in.reserve(nl.inputs().size() * static_cast<std::size_t>(words));
    sim.randomize_inputs(rng);
    for (NodeId pi : nl.inputs()) {
      auto v = sim.value(pi);
      in.insert(in.end(), v.begin(), v.end());
    }
    stim.states[f].assign(sim.state_plane().begin(), sim.state_plane().end());
    sim.eval_frame();
    sim.step();
  }
  return stim;
}

ObservabilityAnalyzer::ObservabilityAnalyzer(const Netlist& nl, SimConfig cfg)
    : nl_(&nl), cfg_(cfg), words_(cfg.words()) {
  SERELIN_REQUIRE(cfg.frames > 0, "need at least one time frame");
}

ObsResult ObservabilityAnalyzer::run() {
  SERELIN_SPAN("obs/run");
  return run_signature(record_frames(*nl_, cfg_));
}

ObsResult ObservabilityAnalyzer::run_signature(
    const FrameStimulus& stim) const {
  SERELIN_SPAN("obs/signature");
  const std::size_t n_nodes = nl_->node_count();
  const std::size_t plane = n_nodes * static_cast<std::size_t>(words_);
  Simulator sim(*nl_, words_);

  // Reverse evaluation order: gates in reverse topological order first,
  // then every source node (whose fanouts are all gates or cross-frame).
  std::vector<NodeId> reverse_order(nl_->gate_order().rbegin(),
                                    nl_->gate_order().rend());
  for (NodeId id = 0; id < n_nodes; ++id)
    if (!is_gate(nl_->node(id).type)) reverse_order.push_back(id);

  std::vector<std::uint64_t> odc(plane, 0);
  // ODC of each flip-flop node in frame i+1, indexed by dff position.
  std::vector<std::uint64_t> odc_next(
      nl_->dff_count() * static_cast<std::size_t>(words_), 0);
  std::vector<std::uint32_t> dff_index(n_nodes, 0);
  for (std::size_t i = 0; i < nl_->dffs().size(); ++i)
    dff_index[nl_->dffs()[i]] = static_cast<std::uint32_t>(i);

  // Per-worker fanin gather buffers for the word-block fan-out below.
  std::vector<std::vector<std::uint64_t>> gathers(
      static_cast<std::size_t>(parallel_workers()));
  ObsResult out;
  out.obs.assign(n_nodes, 0.0);

  for (int frame = cfg_.frames - 1; frame >= 0; --frame) {
    // Per-frame checkpoint: a partial ODC plane is not a valid
    // approximation, so an expired deadline aborts the whole analysis.
    cfg_.deadline.check("observability signature pass");
    // Re-evaluate frame `frame`.
    sim.load_state(stim.states[frame]);
    stim.load_inputs(frame, sim);
    sim.eval_frame();

    const bool last_frame = (frame == cfg_.frames - 1);
    // The backward ODC pass is independent across pattern words: word w of
    // every ODC mask depends only on word w of the value plane and of the
    // already-computed fanout masks. Batch the words into blocks, one
    // parallel task per block — each task sweeps the whole reverse order
    // for its disjoint word columns, so any thread count produces the same
    // bits.
    const Simulator& csim = sim;
    parallel_for_chunks(
        0, static_cast<std::size_t>(words_), 1,
        [&](std::size_t w0, std::size_t w1, int lane) {
          auto& gather = gathers[static_cast<std::size_t>(lane)];
          for (NodeId v : reverse_order) {
            std::uint64_t* odc_v =
                odc.data() + static_cast<std::size_t>(v) * words_;
            const std::uint64_t seed_mask =
                nl_->is_output(v) ? ~0ULL : 0ULL;
            for (std::size_t w = w0; w < w1; ++w) odc_v[w] = seed_mask;
            for (NodeId f : nl_->node(v).fanouts) {
              const Node& fn = nl_->node(f);
              if (fn.type == CellType::kDff) {
                // Cross-frame: the register stores v, visible next frame
                // (or captured as a pseudo-output after the last frame).
                if (last_frame) {
                  for (std::size_t w = w0; w < w1; ++w) odc_v[w] = ~0ULL;
                } else {
                  const std::uint64_t* nx =
                      odc_next.data() +
                      static_cast<std::size_t>(dff_index[f]) * words_;
                  for (std::size_t w = w0; w < w1; ++w) odc_v[w] |= nx[w];
                }
                continue;
              }
              // Local sensitivity of fanout gate f to a flip of v, masked
              // by f's own ODC (already computed: f is topologically after
              // v).
              const std::uint64_t* odc_f =
                  odc.data() + static_cast<std::size_t>(f) * words_;
              gather.resize(fn.fanins.size());
              auto fv = csim.value(f);
              for (std::size_t w = w0; w < w1; ++w) {
                for (std::size_t k = 0; k < fn.fanins.size(); ++k) {
                  std::uint64_t word = csim.value(fn.fanins[k])[w];
                  if (fn.fanins[k] == v) word = ~word;
                  gather[k] = word;
                }
                const std::uint64_t flipped =
                    eval_cell(fn.type, {gather.data(), fn.fanins.size()});
                odc_v[w] |= (flipped ^ fv[w]) & odc_f[w];
              }
            }
          }
        });

    // Snapshot flip-flop ODCs for the next (earlier) frame's cross terms.
    for (std::size_t i = 0; i < nl_->dffs().size(); ++i) {
      const std::uint64_t* src =
          odc.data() + static_cast<std::size_t>(nl_->dffs()[i]) * words_;
      std::copy(src, src + words_,
                odc_next.begin() + static_cast<std::ptrdiff_t>(i * words_));
    }
  }

  for (NodeId v = 0; v < n_nodes; ++v)
    out.obs[v] = popcount_fraction(
        {odc.data() + static_cast<std::size_t>(v) * words_,
         static_cast<std::size_t>(words_)},
        cfg_.patterns);
  return out;
}

}  // namespace serelin
