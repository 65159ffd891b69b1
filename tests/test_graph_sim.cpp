#include <gtest/gtest.h>

#include "check/graph_sim.hpp"
#include "gen/random_circuit.hpp"
#include "helpers.hpp"
#include "netlist/builder.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"

namespace serelin {
namespace {

// Runs both machines on identical random input streams and compares the
// primary-output words every cycle.
void expect_equivalent(const RetimingGraph& g, const Retiming& ra,
                       const EdgeState& sa, const Retiming& rb,
                       const EdgeState& sb, int cycles, std::uint64_t seed) {
  const int words = 2;
  GraphStateSimulator a(g, ra, sa, words);
  GraphStateSimulator b(g, rb, sb, words);
  Rng rng_a(seed), rng_b(seed);
  for (int c = 0; c < cycles; ++c) {
    a.randomize_sources(rng_a);
    b.randomize_sources(rng_b);
    a.cycle();
    b.cycle();
    ASSERT_EQ(a.sink_values(), b.sink_values()) << "cycle " << c;
  }
}

TEST(GraphSim, MatchesNetlistSimulator) {
  const Netlist nl = test::tiny_ring();
  CellLibrary lib;
  RetimingGraph g(nl, lib);
  const Retiming r0 = g.zero_retiming();
  GraphStateSimulator gs(g, r0, zero_edge_state(g, r0, 1), 1);
  Simulator ns(nl, 1);
  ns.reset_state();
  Rng rng(5);
  for (int c = 0; c < 16; ++c) {
    const std::uint64_t word = rng.next();
    gs.set_source(g.vertex_of(nl.find("en")), {word});
    ns.value(nl.find("en"))[0] = word;
    gs.cycle();
    ns.eval_frame();
    EXPECT_EQ(gs.value(g.vertex_of(nl.find("tap")))[0],
              ns.value(nl.find("tap"))[0])
        << "cycle " << c;
    ns.step();
  }
}

TEST(GraphSim, SingleForwardMovePreservesBehaviour) {
  const Netlist nl = test::tiny_pipeline();
  CellLibrary lib;
  RetimingGraph g(nl, lib);
  const Retiming r0 = g.zero_retiming();
  Retiming r1 = r0;
  r1[g.vertex_of(nl.find("c"))] = -1;
  ASSERT_TRUE(g.valid(r1));
  const EdgeState s0 = zero_edge_state(g, r0, 2);
  const EdgeState s1 = decompose_forward(g, r0, r1, s0, 2);
  expect_equivalent(g, r0, s0, r1, s1, 24, 17);
}

TEST(GraphSim, ForwardMoveWithNonZeroState) {
  // The transported initial state must be computed, not zeroed: with an
  // inverter in front of the moved register, zero states are inequivalent.
  const Netlist nl = test::tiny_pipeline();
  CellLibrary lib;
  RetimingGraph g(nl, lib);
  const Retiming r0 = g.zero_retiming();
  Retiming r1 = r0;
  r1[g.vertex_of(nl.find("c"))] = -1;
  EdgeState s0 = zero_edge_state(g, r0, 1);
  // b = NOT(a): with x = 0 and register value 0... force a register value.
  for (EdgeId e = 0; e < g.edge_count(); ++e)
    if (!s0[e].empty()) s0[e].front()[0] = 0xF0F0F0F0F0F0F0F0ULL;
  const EdgeState s1 = decompose_forward(g, r0, r1, s0, 1);
  // The moved register holds BUF(old value) = the old value (c is a BUF).
  bool found = false;
  for (EdgeId e = 0; e < g.edge_count(); ++e)
    if (!s1[e].empty()) {
      EXPECT_EQ(s1[e].front()[0], 0xF0F0F0F0F0F0F0F0ULL);
      found = true;
    }
  EXPECT_TRUE(found);
  GraphStateSimulator a(g, r0, s0, 1);
  GraphStateSimulator b(g, r1, s1, 1);
  Rng ra(3), rb(3);
  for (int c = 0; c < 10; ++c) {
    a.randomize_sources(ra);
    b.randomize_sources(rb);
    a.cycle();
    b.cycle();
    ASSERT_EQ(a.sink_values(), b.sink_values());
  }
}

TEST(GraphSim, MultiStepDecompositionOnRing) {
  const Netlist nl = test::tiny_ring();
  CellLibrary lib;
  RetimingGraph g(nl, lib);
  const Retiming r0 = g.zero_retiming();
  // Rotate both ring registers forward once: inv1 and buf1 each by one.
  Retiming r1 = r0;
  r1[g.vertex_of(nl.find("inv1"))] = -1;
  r1[g.vertex_of(nl.find("buf1"))] = -1;
  ASSERT_TRUE(g.valid(r1));
  const EdgeState s0 = zero_edge_state(g, r0, 2);
  const EdgeState s1 = decompose_forward(g, r0, r1, s0, 2);
  expect_equivalent(g, r0, s0, r1, s1, 32, 23);
}

TEST(GraphSim, DecomposeRejectsBackwardMoves) {
  const Netlist nl = test::tiny_pipeline();
  CellLibrary lib;
  RetimingGraph g(nl, lib);
  const Retiming r0 = g.zero_retiming();
  Retiming r1 = r0;
  r1[g.vertex_of(nl.find("c"))] = 1;
  const EdgeState s0 = zero_edge_state(g, r0, 1);
  EXPECT_THROW(decompose_forward(g, r0, r1, s0, 1), PreconditionError);
}

TEST(GraphSim, StateArityIsChecked) {
  const Netlist nl = test::tiny_pipeline();
  CellLibrary lib;
  RetimingGraph g(nl, lib);
  const Retiming r0 = g.zero_retiming();
  EdgeState wrong = zero_edge_state(g, r0, 1);
  for (auto& q : wrong) q.clear();  // drop all registers
  EXPECT_THROW(GraphStateSimulator(g, r0, wrong, 1), PreconditionError);
}

// Property: random circuits, random valid forward retimings, transported
// state => identical PO streams.
class ForwardEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(ForwardEquivalence, RandomForwardRetiming) {
  RandomCircuitSpec spec;
  spec.gates = 60;
  spec.dffs = 14;
  spec.inputs = 5;
  spec.outputs = 5;
  spec.mean_fanin = 1.8;
  spec.seed = static_cast<std::uint64_t>(GetParam()) * 104729;
  const Netlist nl = generate_random_circuit(spec);
  CellLibrary lib;
  RetimingGraph g(nl, lib);
  const Retiming r0 = g.zero_retiming();

  // Build a random valid forward retiming by repeated legal unit moves.
  Rng rng(spec.seed ^ 0xabcdef);
  Retiming r1 = r0;
  for (int tries = 0; tries < 300; ++tries) {
    const VertexId v = static_cast<VertexId>(rng.below(g.vertex_count()));
    if (!g.movable(v)) continue;
    --r1[v];
    bool ok = true;
    for (EdgeId e : g.in_edges(v)) ok = ok && g.wr(e, r1) >= 0;
    if (!ok) ++r1[v];
  }
  ASSERT_TRUE(g.valid(r1));
  const EdgeState s0 = zero_edge_state(g, r0, 2);
  const EdgeState s1 = decompose_forward(g, r0, r1, s0, 2);
  expect_equivalent(g, r0, s0, r1, s1, 20, spec.seed);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ForwardEquivalence, ::testing::Range(1, 11));

}  // namespace
}  // namespace serelin
