#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "check/exact_observability.hpp"
#include "gen/paper_suite.hpp"
#include "gen/random_circuit.hpp"
#include "helpers.hpp"
#include "netlist/builder.hpp"
#include "sim/observability.hpp"
#include "support/corpus.hpp"
#include "support/strings.hpp"

namespace serelin {
namespace {

SimConfig small_cfg(int frames = 4) {
  SimConfig cfg;
  cfg.patterns = 256;
  cfg.frames = frames;
  cfg.warmup = 8;
  return cfg;
}

TEST(Observability, FullyObservableChain) {
  // Every node of a buffer/inverter pipeline is fully observable: a flip
  // anywhere always reaches the PO (within the frame horizon).
  const Netlist nl = test::tiny_pipeline();
  ObservabilityAnalyzer an(nl, small_cfg());
  const auto r = an.run();
  for (NodeId id = 0; id < nl.node_count(); ++id)
    EXPECT_DOUBLE_EQ(r.obs[id], 1.0) << nl.node(id).name;
}

TEST(Observability, PrimaryOutputDriverIsFullyObservable) {
  const Netlist nl = test::tiny_reconvergent();
  ObservabilityAnalyzer an(nl, small_cfg());
  const auto r = an.run();
  EXPECT_DOUBLE_EQ(r.obs[nl.find("out")], 1.0);
  EXPECT_DOUBLE_EQ(r.obs[nl.find("g3")], 1.0);  // feeds the register, seen
}

TEST(Observability, AndGateMasksSideInput) {
  // z = AND(x, y): a flip on x is visible only when y = 1 (about half the
  // random patterns).
  NetlistBuilder nb("mask");
  nb.input("x");
  nb.input("y");
  nb.gate("z", CellType::kAnd, {"x", "y"});
  nb.output("z");
  const Netlist nl = nb.build();
  SimConfig cfg = small_cfg(1);
  cfg.patterns = 4096;
  ObservabilityAnalyzer an(nl, cfg);
  const auto r = an.run();
  EXPECT_NEAR(r.obs[nl.find("x")], 0.5, 0.05);
  EXPECT_DOUBLE_EQ(r.obs[nl.find("z")], 1.0);
}

TEST(Observability, XorNeverMasks) {
  NetlistBuilder nb("xor");
  nb.input("x");
  nb.input("y");
  nb.gate("z", CellType::kXor, {"x", "y"});
  nb.output("z");
  const Netlist nl = nb.build();
  ObservabilityAnalyzer an(nl, small_cfg(1));
  const auto r = an.run();
  EXPECT_DOUBLE_EQ(r.obs[nl.find("x")], 1.0);
  EXPECT_DOUBLE_EQ(r.obs[nl.find("y")], 1.0);
}

TEST(Observability, DeadConeHasZeroObservability) {
  NetlistBuilder nb("dead");
  nb.input("x");
  nb.gate("live", CellType::kBuf, {"x"});
  nb.gate("dead", CellType::kNot, {"x"});
  nb.output("live");
  const Netlist nl = nb.build();
  ObservabilityAnalyzer an(nl, small_cfg());
  const auto r = an.run();
  EXPECT_DOUBLE_EQ(r.obs[nl.find("dead")], 0.0);
}

TEST(Observability, SignatureMatchesExactOnTrees) {
  // On fanout-free circuits the backward ODC propagation is exact.
  NetlistBuilder nb("tree");
  nb.input("a");
  nb.input("b");
  nb.input("c");
  nb.input("d");
  nb.gate("g1", CellType::kAnd, {"a", "b"});
  nb.gate("g2", CellType::kOr, {"c", "d"});
  nb.gate("g3", CellType::kNand, {"g1", "g2"});
  nb.output("g3");
  const Netlist nl = nb.build();
  const auto approx = ObservabilityAnalyzer(nl, small_cfg(1)).run();
  const auto exact = exact_observability(nl, small_cfg(1));
  for (NodeId id = 0; id < nl.node_count(); ++id)
    EXPECT_DOUBLE_EQ(approx.obs[id], exact.obs[id]) << nl.node(id).name;
}

TEST(Observability, SignatureMatchesExactWithRepeatedFanins) {
  // Each gate below reads one net on two pins, so a flip of that net flips
  // both pins at once: XOR(a,a) never changes, NAND(b,c,b) changes iff c,
  // NOR(d,d,e) iff !e. The circuit is fanout-free, so the signature pass
  // must equal the exact reference bit for bit.
  NetlistBuilder nb("repeated");
  for (const char* pi : {"a", "b", "c", "d", "e"}) nb.input(pi);
  nb.gate("x", CellType::kXor, {"a", "a"});
  nb.gate("y", CellType::kNand, {"b", "c", "b"});
  nb.gate("z", CellType::kNor, {"d", "d", "e"});
  nb.gate("m", CellType::kAnd, {"y", "z"});
  nb.gate("o", CellType::kOr, {"m", "x"});
  nb.output("o");
  // Every push path of the wide gates too: 4- and 5-input AND, NAND, OR
  // and NOR over distinct nets and with one net read on two pins, and a
  // 4-input XOR that reads one net three times. Each drives an AND with a
  // side input of its own, so its ODC is not all ones.
  int fresh = 0;
  const auto pi = [&] {
    const std::string name = numbered("i", fresh++);
    nb.input(name);
    return name;
  };
  std::vector<std::string> wide;
  for (const CellType type :
       {CellType::kAnd, CellType::kNand, CellType::kOr, CellType::kNor}) {
    for (const int arity : {4, 5}) {
      for (const bool twice : {false, true}) {
        std::vector<std::string> fanins;
        for (int k = 0; k < arity - (twice ? 1 : 0); ++k)
          fanins.push_back(pi());
        if (twice) fanins.insert(fanins.begin() + 2, fanins[0]);
        wide.push_back(numbered("w", static_cast<std::int64_t>(wide.size())));
        nb.gate(wide.back(), type, fanins);
      }
    }
  }
  const std::string thrice = pi();
  wide.push_back("x4");
  nb.gate("x4", CellType::kXor, {thrice, pi(), thrice, thrice});
  for (const std::string& w : wide) {
    nb.gate(w + "_o", CellType::kAnd, {w, pi()});
    nb.output(w + "_o");
  }
  const Netlist nl = nb.build();
  const auto approx = ObservabilityAnalyzer(nl, small_cfg(1)).run();
  const auto exact = exact_observability(nl, small_cfg(1));
  for (NodeId id = 0; id < nl.node_count(); ++id)
    EXPECT_DOUBLE_EQ(approx.obs[id], exact.obs[id]) << nl.node(id).name;
  EXPECT_EQ(approx.obs[nl.find("a")], 0.0);
  EXPECT_GT(approx.obs[nl.find("b")], 0.0);
  EXPECT_GT(approx.obs[nl.find("d")], 0.0);
  EXPECT_GT(approx.obs[nl.find(thrice)], 0.0);
}

TEST(Observability, SignatureMatchesExactOnSequentialChain) {
  const Netlist nl = test::tiny_pipeline();
  const auto approx = ObservabilityAnalyzer(nl, small_cfg(3)).run();
  const auto exact = exact_observability(nl, small_cfg(3));
  for (NodeId id = 0; id < nl.node_count(); ++id)
    EXPECT_DOUBLE_EQ(approx.obs[id], exact.obs[id]) << nl.node(id).name;
}

TEST(Observability, FrameHorizonConvergesDownward) {
  // Lossy self-loop: ff' = AND(ff, en2), tap = AND(ff, en) -> PO. A flip
  // of ff at frame 0 is seen with probability .5 per frame and survives
  // with probability .5 per frame. With n frames the expanded-circuit
  // observables are the POs of all frames plus the final register plane,
  // so obs(ff, n) = .5 + .25·obs(ff, n-1): 0.75, 0.6875, ... -> 2/3.
  // The time-frame expansion converges monotonically from above — the
  // "steady operational state" the paper reaches at n = 15.
  NetlistBuilder nb("lossy_ring");
  nb.input("en");
  nb.input("en2");
  nb.dff("ff", "a");
  nb.gate("a", CellType::kAnd, {"ff", "en2"});
  nb.gate("tap", CellType::kAnd, {"ff", "en"});
  nb.output("tap");
  const Netlist nl = nb.build();
  SimConfig one = small_cfg(1);
  SimConfig many = small_cfg(10);
  one.patterns = many.patterns = 4096;
  const auto obs1 = ObservabilityAnalyzer(nl, one).run();
  const auto obs10 = ObservabilityAnalyzer(nl, many).run();
  const NodeId ff = nl.find("ff");
  EXPECT_NEAR(obs1.obs[ff], 0.75, 0.03);
  EXPECT_NEAR(obs10.obs[ff], 2.0 / 3.0, 0.03);
  EXPECT_GT(obs1.obs[ff], obs10.obs[ff] + 0.02);
}

TEST(Observability, DeterministicForConfig) {
  const Netlist nl = test::tiny_reconvergent();
  const auto a = ObservabilityAnalyzer(nl, small_cfg()).run();
  const auto b = ObservabilityAnalyzer(nl, small_cfg()).run();
  EXPECT_EQ(a.obs, b.obs);
}

// FNV-1a over the bit patterns of every obs value, in NodeId order.
std::uint64_t obs_hash(const ObsResult& r) {
  return content_hash({reinterpret_cast<const char*>(r.obs.data()),
                       r.obs.size() * sizeof(double)});
}

TEST(Observability, SignatureBitsArePinned) {
  // The hashes were recorded from the flip-and-re-evaluate formulation of
  // the backward pass; the push formulation must reproduce them exactly.
  // b14_1_opt holds a gate with a repeated fanin.
  RandomCircuitSpec spec;
  spec.gates = 600;
  spec.dffs = 120;
  spec.inputs = 12;
  spec.outputs = 10;
  spec.seed = 41;
  const Netlist rand600 = generate_random_circuit(spec);
  spec.gates = 1500;
  spec.dffs = 400;
  spec.mean_fanin = 3.0;
  spec.seed = 97;
  const Netlist rand1500 = generate_random_circuit(spec);
  const Netlist b14 = generate_suite_circuit(suite_circuit("b14_1_opt"));
  const SimConfig cfg = small_cfg(4);
  EXPECT_EQ(hash_hex(obs_hash(ObservabilityAnalyzer(b14, cfg).run())),
            "650027258d73e203");
  EXPECT_EQ(hash_hex(obs_hash(ObservabilityAnalyzer(rand600, cfg).run())),
            "b66d0e7e37e30968");
  EXPECT_EQ(hash_hex(obs_hash(ObservabilityAnalyzer(rand1500, cfg).run())),
            "81db498e181ce6db");
}

// Signature vs exact on random reconvergent circuits: the approximation
// must stay within a loose envelope of the exact value (it is a
// first-order method) and be exact for a large share of nodes.
class SigVsExact : public ::testing::TestWithParam<int> {};

TEST_P(SigVsExact, CloseToExact) {
  RandomCircuitSpec spec;
  spec.gates = 40;
  spec.dffs = 8;
  spec.inputs = 5;
  spec.outputs = 4;
  spec.mean_fanin = 2.0;
  spec.seed = static_cast<std::uint64_t>(GetParam()) * 7919;
  const Netlist nl = generate_random_circuit(spec);
  SimConfig cfg = small_cfg(3);
  cfg.patterns = 1024;
  const auto approx = ObservabilityAnalyzer(nl, cfg).run();
  const auto exact = exact_observability(nl, cfg);
  int close = 0, total = 0;
  for (NodeId id = 0; id < nl.node_count(); ++id) {
    ++total;
    if (std::abs(approx.obs[id] - exact.obs[id]) < 0.15) ++close;
  }
  // The vast majority of nodes must be well-approximated.
  EXPECT_GE(close * 10, total * 8)
      << close << " of " << total << " nodes within 0.15";
}

INSTANTIATE_TEST_SUITE_P(Seeds, SigVsExact, ::testing::Range(1, 7));

}  // namespace
}  // namespace serelin
