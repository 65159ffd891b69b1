#include "sim/observability.hpp"

#include <algorithm>
#include <bit>

#include "support/check.hpp"
#include "support/metrics.hpp"
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

  FrameStimulus stim;
  stim.inputs.assign(cfg.frames, {});
  stim.states.assign(cfg.frames, {});
  // Warm-up cycles, then the recorded frames; the deadline is polled once
  // per simulated cycle, before its evaluation.
  for (int c = 0; c < cfg.warmup + cfg.frames; ++c) {
    cfg.deadline.check("observability stimulus recording");
    sim.randomize_inputs(rng);
    if (const int f = c - cfg.warmup; f >= 0) {
      auto& in = stim.inputs[f];
      in.reserve(nl.inputs().size() * static_cast<std::size_t>(words));
      for (NodeId pi : nl.inputs()) {
        auto v = sim.value(pi);
        in.insert(in.end(), v.begin(), v.end());
      }
      stim.states[f].assign(sim.state_plane().begin(),
                            sim.state_plane().end());
    }
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
  const Netlist& nl = *nl_;
  const std::size_t n_nodes = nl.node_count();
  const std::size_t words = static_cast<std::size_t>(words_);
  Simulator sim(nl, words_);
  const GateProgram& prog = sim.program();

  std::vector<std::uint64_t> odc(n_nodes * words, 0);
  // ODC of each flip-flop node in frame i+1, indexed by dff position.
  std::vector<std::uint64_t> odc_next(nl.dff_count() * words, 0);
  // One word block per lane: word w of every ODC mask depends only on word
  // w of the value plane and of the fanout masks, so each block is swept
  // independently and any thread count produces the same bits. Blocks are
  // whole 8-word (64-byte) lines, so a plane of 8 words or fewer is swept
  // inline: every lane walks the whole gate order, and blocks shorter than
  // a line measured slower than one inline sweep (EXPERIMENTS.md).
  const std::size_t lanes = static_cast<std::size_t>(parallel_workers());
  const std::size_t block = ((words + lanes - 1) / lanes + 7) / 8 * 8;
  // One scratch row of `block` words per lane, for the push's sens_u.
  std::vector<std::uint64_t> scratch(lanes * block);

  for (int frame = cfg_.frames - 1; frame >= 0; --frame) {
    // Per-frame checkpoint: a partial ODC plane is not a valid
    // approximation, so an expired deadline aborts the whole analysis.
    cfg_.deadline.check("observability signature pass");
    // Re-evaluate frame `frame`.
    sim.load_state(stim.states[frame]);
    stim.load_inputs(frame, sim);
    sim.eval_frame();
    const bool last_frame = (frame == cfg_.frames - 1);
    const Simulator& csim = sim;

    parallel_for_chunks(0, words, block, [&](std::size_t w0, std::size_t w1,
                                             int lane) {
      const std::size_t len = w1 - w0;
      const auto val = [&](NodeId v) { return csim.value(v).data() + w0; };
      const auto odc_of = [&](NodeId v) {
        return odc.data() + static_cast<std::size_t>(v) * words + w0;
      };
      // Seed: every primary output is observed in every frame.
      for (NodeId v = 0; v < n_nodes; ++v)
        std::fill_n(odc_of(v), len, nl.is_output(v) ? ~0ULL : 0ULL);
      // Cross-frame: a register stores the net on its D pin, visible
      // through the register's ODC in the next frame (or captured as a
      // pseudo-output after the last frame).
      for (std::size_t i = 0; i < nl.dff_count(); ++i) {
        std::uint64_t* d = odc_of(nl.node(nl.dffs()[i]).fanins[0]);
        const std::uint64_t* nx = odc_next.data() + i * words + w0;
        for (std::size_t w = 0; w < len; ++w)
          d[w] |= last_frame ? ~0ULL : nx[w];
      }
      // Push, gates in reverse topological order: every fanout of a gate
      // has pushed into it already, so its ODC is complete. Each net u the
      // gate reads gains sens_u & ODC(gate), sens_u the local Boolean
      // difference of the gate in u; a flip of u flips every pin reading u.
      // sens_u is built in the lane's scratch row one pin at a time, each
      // pass a straight word sweep.
      std::uint64_t* sens =
          scratch.data() + static_cast<std::size_t>(lane) * block;
      for (std::size_t k = prog.gates(); k-- > 0;) {
        const std::span<const NodeId> fanins = prog.fanins(k);
        const std::uint64_t* odc_g = odc_of(prog.node[k]);
        const CellType type = prog.type[k];
        switch (type) {
          case CellType::kAnd:
          case CellType::kNand:
          case CellType::kOr:
          case CellType::kNor: {
            // A flip of u shows iff every pin reading another net is
            // non-controlling: 1 for AND/NAND, 0 for OR/NOR.
            const std::uint64_t flip =
                type == CellType::kOr || type == CellType::kNor ? ~0ULL : 0ULL;
            for (const NodeId u : fanins) {
              std::copy_n(odc_g, len, sens);
              for (const NodeId x : fanins) {
                if (x == u) continue;
                const std::uint64_t* vx = val(x);
                for (std::size_t w = 0; w < len; ++w) sens[w] &= vx[w] ^ flip;
              }
              std::uint64_t* odc_u = odc_of(u);
              for (std::size_t w = 0; w < len; ++w) odc_u[w] |= sens[w];
            }
            break;
          }
          default:  // kBuf, kNot, kXor, kXnor: a flip of u shows iff it
                    // flips an odd number of pins
            for (const NodeId u : fanins) {
              if (std::ranges::count(fanins, u) % 2 == 0) continue;
              std::uint64_t* odc_u = odc_of(u);
              for (std::size_t w = 0; w < len; ++w) odc_u[w] |= odc_g[w];
            }
            break;
        }
      }
      SERELIN_COUNT(kSimOdcWords,
                    static_cast<std::int64_t>(prog.fanin.size() * len));
    });

    // Snapshot flip-flop ODCs for the next (earlier) frame's cross terms.
    for (std::size_t i = 0; i < nl.dff_count(); ++i) {
      const std::uint64_t* src =
          odc.data() + static_cast<std::size_t>(nl.dffs()[i]) * words;
      std::copy(src, src + words,
                odc_next.begin() + static_cast<std::ptrdiff_t>(i * words));
    }
  }

  ObsResult out;
  out.obs.assign(n_nodes, 0.0);
  for (NodeId v = 0; v < n_nodes; ++v)
    out.obs[v] = popcount_fraction({odc.data() + v * words, words},
                                   cfg_.patterns);
  return out;
}

}  // namespace serelin
