#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "helpers.hpp"
#include "netlist/builder.hpp"
#include "sim/simulator.hpp"
#include "support/rng.hpp"

namespace serelin {
namespace {

TEST(Simulator, CombinationalEvaluation) {
  const Netlist nl = test::tiny_reconvergent();
  Simulator sim(nl, 1);
  auto x = sim.value(nl.find("x"));
  auto y = sim.value(nl.find("y"));
  x[0] = 0b1100;
  y[0] = 0b1010;
  sim.eval_frame();
  EXPECT_EQ(sim.value(nl.find("g1"))[0], 0b1000ULL);            // AND
  EXPECT_EQ(sim.value(nl.find("g2"))[0], 0b1110ULL);            // OR
  EXPECT_EQ(sim.value(nl.find("g3"))[0], 0b0110ULL);            // XOR
}

TEST(Simulator, RegisterLatchesOnStep) {
  const Netlist nl = test::tiny_pipeline();
  Simulator sim(nl, 1);
  sim.reset_state();
  sim.value(nl.find("x"))[0] = ~0ULL;
  sim.eval_frame();
  // Before the clock edge the register still holds 0.
  EXPECT_EQ(sim.value(nl.find("ff"))[0], 0ULL);
  EXPECT_EQ(sim.value(nl.find("c"))[0], 0ULL);
  sim.step();
  sim.eval_frame();
  // b = NOT(a) = NOT(x) = 0 latched... x=all-ones -> b = 0.
  EXPECT_EQ(sim.value(nl.find("ff"))[0], 0ULL);
  // Drive x low: b = 1, latched next cycle.
  sim.value(nl.find("x"))[0] = 0ULL;
  sim.eval_frame();
  sim.step();
  sim.eval_frame();
  EXPECT_EQ(sim.value(nl.find("ff"))[0], ~0ULL);
  EXPECT_EQ(sim.value(nl.find("c"))[0], ~0ULL);
}

TEST(Simulator, RingOscillatesThroughRegisters) {
  // ff1 -> inv -> ff2 -> buf -> ff1: state cycles with period 2 cycles
  // once the inversion propagates around.
  const Netlist nl = test::tiny_ring();
  Simulator sim(nl, 1);
  sim.reset_state();
  sim.value(nl.find("en"))[0] = ~0ULL;
  std::vector<std::uint64_t> tap_history;
  for (int cyc = 0; cyc < 8; ++cyc) {
    sim.eval_frame();
    tap_history.push_back(sim.value(nl.find("tap"))[0] & 1ULL);
    sim.step();
  }
  // State (ff1,ff2) walks (0,0)->(0,1)->(1,1)->(1,0)->(0,0): ff1 has
  // period 4 with two low then two high cycles.
  const std::vector<std::uint64_t> expect{0, 0, 1, 1, 0, 0, 1, 1};
  EXPECT_EQ(tap_history, expect);
}

TEST(Simulator, LoadAndReadStatePlane) {
  const Netlist nl = test::tiny_ring();
  Simulator sim(nl, 2);
  std::vector<std::uint64_t> st(nl.dff_count() * 2, 0);
  st[0] = 0xDEADULL;  // ff1 word 0
  sim.load_state(st);
  EXPECT_EQ(sim.state(0)[0], 0xDEADULL);
  sim.eval_frame();
  EXPECT_EQ(sim.value(nl.dffs()[0])[0], 0xDEADULL);
}

TEST(Simulator, LoadStateRejectsWrongSize) {
  const Netlist nl = test::tiny_ring();
  Simulator sim(nl, 2);
  std::vector<std::uint64_t> bad(3, 0);
  EXPECT_THROW(sim.load_state(bad), PreconditionError);
}

TEST(Simulator, RandomizeInputsIsDeterministicPerSeed) {
  const Netlist nl = test::tiny_pipeline();
  Simulator a(nl, 4), b(nl, 4);
  Rng ra(99), rb(99);
  a.randomize_inputs(ra);
  b.randomize_inputs(rb);
  for (int w = 0; w < 4; ++w)
    EXPECT_EQ(a.value(nl.find("x"))[w], b.value(nl.find("x"))[w]);
}

TEST(Simulator, ConstantsHoldTheirValue) {
  NetlistBuilder nb("consts");
  nb.input("x");
  nb.constant("one", true);
  nb.constant("zero", false);
  nb.gate("g", CellType::kAnd, {"x", "one"});
  nb.gate("h", CellType::kOr, {"g", "zero"});
  nb.output("h");
  const Netlist nl = nb.build();
  Simulator sim(nl, 1);
  sim.value(nl.find("x"))[0] = 0xF0F0ULL;
  sim.eval_frame();
  EXPECT_EQ(sim.value(nl.find("one"))[0], ~0ULL);
  EXPECT_EQ(sim.value(nl.find("zero"))[0], 0ULL);
  EXPECT_EQ(sim.value(nl.find("h"))[0], 0xF0F0ULL);
}

TEST(Simulator, WordParallelMatchesScalar) {
  // Simulating 2 words must agree with two 1-word runs on the same data.
  const Netlist nl = test::tiny_reconvergent();
  Simulator wide(nl, 2);
  wide.value(nl.find("x"))[0] = 0x1234;
  wide.value(nl.find("x"))[1] = 0xABCD;
  wide.value(nl.find("y"))[0] = 0x0F0F;
  wide.value(nl.find("y"))[1] = 0xFF00;
  wide.eval_frame();
  for (int w = 0; w < 2; ++w) {
    Simulator narrow(nl, 1);
    narrow.value(nl.find("x"))[0] = wide.value(nl.find("x"))[w];
    narrow.value(nl.find("y"))[0] = wide.value(nl.find("y"))[w];
    narrow.eval_frame();
    EXPECT_EQ(narrow.value(nl.find("g3"))[0], wide.value(nl.find("g3"))[w]);
  }
}

TEST(Cell, RowEvalMatchesEvalCell) {
  // eval_cell_rows must be eval_cell applied word by word, whatever the
  // gate type, the arity and the row length; fanins read the plane's rows
  // out of order, so a kernel that assumed fanin k = row k would fail.
  // Arity-2 and arity-3 gates also read one row on two pins, which a first
  // pass that folds several rows at once must get right (the formula
  // repeats a row only from arity 4 on).
  Rng rng(0xce11ULL);
  for (int t = 0; t < kNumCellTypes; ++t) {
    const auto type = static_cast<CellType>(t);
    if (!is_gate(type)) continue;
    const int hi = std::min(max_fanins(type), 5);
    for (int arity = min_fanins(type); arity <= hi; ++arity) {
      const std::size_t rows = 6;
      std::vector<std::vector<std::uint32_t>> layouts(1);
      for (int k = 0; k < arity; ++k)
        layouts[0].push_back(static_cast<std::uint32_t>((k * 4 + 5) % rows));
      if (arity == 2) layouts.push_back({3, 3});
      if (arity == 3) {
        layouts.push_back({1, 4, 1});
        layouts.push_back({4, 4, 1});
        layouts.push_back({1, 4, 4});
      }
      for (const auto& fanins : layouts) {
        for (std::size_t words = 1; words <= 5; ++words) {
          std::vector<std::uint64_t> plane(rows * words);
          for (auto& w : plane) w = rng.next();
          std::vector<std::uint64_t> out(words, 0x5a5a5a5a5a5a5a5aULL);
          eval_cell_rows(type, fanins, plane.data(), out);
          for (std::size_t w = 0; w < words; ++w) {
            std::vector<std::uint64_t> in;
            for (const std::uint32_t f : fanins)
              in.push_back(plane[f * words + w]);
            EXPECT_EQ(out[w], eval_cell(type, in))
                << cell_type_name(type) << " fanins " << fanins.size()
                << " first " << fanins[0] << " words " << words << " word "
                << w;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace serelin
