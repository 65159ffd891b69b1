#include "check/exact_observability.hpp"

#include <bit>
#include <memory>
#include <vector>

#include "sim/simulator.hpp"
#include "support/check.hpp"
#include "support/metrics.hpp"
#include "support/parallel.hpp"
#include "support/trace.hpp"

namespace serelin {

namespace {

/// Simulates frames 0..frames-1 of `stim`, optionally flipping `flip` in
/// frame 0, and fills `out` with the concatenated observable words (POs of
/// each frame, then the final register plane). `sim` and `gather` are
/// caller-owned scratch, so resimulations can run in parallel with
/// per-lane buffers.
void observables(const Netlist& nl, const FrameStimulus& stim, int frames,
                 NodeId flip, Simulator& sim,
                 std::vector<std::uint64_t>& gather,
                 std::vector<std::uint64_t>& out) {
  const int words = sim.words();
  sim.load_state(stim.states[0]);
  out.clear();
  for (int frame = 0; frame < frames; ++frame) {
    stim.load_inputs(frame, sim);
    if (frame == 0 && flip != kNullNode) {
      // Evaluate with the flip injected at `flip` and propagated: evaluate
      // normally, invert the node, then re-evaluate everything downstream.
      // Re-evaluating the whole frame after the inversion is simplest and
      // correct because gate evaluation is in topological order and the
      // inverted node is pinned.
      sim.eval_frame();
      auto fv = sim.value(flip);
      for (auto& w : fv) w = ~w;
      // Recompute gates downstream of flip (all gates; pin the flip).
      std::int64_t reevaluated = 0;
      for (NodeId id : nl.gate_order()) {
        if (id == flip) continue;
        const Node& n = nl.node(id);
        gather.resize(n.fanins.size());
        auto outw = sim.value(id);
        for (int w = 0; w < words; ++w) {
          for (std::size_t k = 0; k < n.fanins.size(); ++k)
            gather[k] = sim.value(n.fanins[k])[w];
          outw[w] = eval_cell(n.type, {gather.data(), n.fanins.size()});
        }
        ++reevaluated;
      }
      SERELIN_COUNT(kSimPatternWords, reevaluated * words);
    } else {
      sim.eval_frame();
    }
    for (NodeId po : nl.outputs()) {
      auto v = sim.value(po);
      out.insert(out.end(), v.begin(), v.end());
    }
    sim.step();
  }
  const auto st = sim.state_plane();
  out.insert(out.end(), st.begin(), st.end());
}

}  // namespace

ObsResult exact_observability(const Netlist& nl, const SimConfig& cfg) {
  SERELIN_SPAN("obs/exact");
  const int words = cfg.words();
  const FrameStimulus stim = record_frames(nl, cfg);
  ObsResult out;
  out.obs.assign(nl.node_count(), 0.0);

  std::vector<std::uint64_t> base;
  {
    Simulator sim(nl, words);
    std::vector<std::uint64_t> gather;
    observables(nl, stim, cfg.frames, kNullNode, sim, gather, base);
  }

  // One flip-and-resimulate run per node; runs are fully independent (each
  // lane owns its Simulator and each run writes only obs[v]), so the
  // fan-out is deterministic by construction.
  struct LaneScratch {
    std::unique_ptr<Simulator> sim;
    std::vector<std::uint64_t> plane;
    std::vector<std::uint64_t> gather;
    std::vector<std::uint64_t> diff;
  };
  std::vector<LaneScratch> lanes(
      static_cast<std::size_t>(parallel_workers()));
  // Deadline-aware fan-out: each lane polls before every flip-resimulate
  // and the CancelledError is rethrown on the caller.
  parallel_for(0, nl.node_count(), 1, cfg.deadline,
               "observability exact pass", [&](std::size_t v, int lane) {
    LaneScratch& sc = lanes[static_cast<std::size_t>(lane)];
    if (!sc.sim) sc.sim = std::make_unique<Simulator>(nl, words);
    SERELIN_COUNT(kObsFlips, 1);
    observables(nl, stim, cfg.frames, static_cast<NodeId>(v), *sc.sim,
                sc.gather, sc.plane);
    SERELIN_ASSERT(sc.plane.size() == base.size(),
                   "observable plane mismatch");
    sc.diff.assign(static_cast<std::size_t>(words), 0);
    for (std::size_t i = 0; i < base.size(); ++i)
      sc.diff[i % static_cast<std::size_t>(words)] |= base[i] ^ sc.plane[i];
    std::int64_t ones = 0;
    for (std::uint64_t w : sc.diff) ones += std::popcount(w);
    out.obs[v] = static_cast<double>(ones) / cfg.patterns;
  });
  return out;
}

}  // namespace serelin
