#include <gtest/gtest.h>

#include <sstream>

#include "gen/random_circuit.hpp"
#include "helpers.hpp"
#include "netlist/blif_io.hpp"
#include "sim/simulator.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace serelin {
namespace {

constexpr const char* kSmallBlif = R"(
# a small sequential BLIF model
.model demo
.inputs a b \
        c
.outputs z q
.latch d q re clk 0
.names a b t1
11 1
.names t1 c t2
1- 1
-1 1
.names t2 z
0 1
.names z q d
01 1
10 1
.end
)";

TEST(BlifIO, ParsesModel) {
  std::istringstream in(kSmallBlif);
  const Netlist nl = read_blif(in);
  EXPECT_EQ(nl.name(), "demo");
  EXPECT_EQ(nl.inputs().size(), 3u);  // continuation line folded
  EXPECT_EQ(nl.outputs().size(), 2u);
  EXPECT_EQ(nl.dff_count(), 1u);
  EXPECT_EQ(nl.node(nl.find("t1")).type, CellType::kAnd);
  EXPECT_EQ(nl.node(nl.find("t2")).type, CellType::kOr);
  EXPECT_EQ(nl.node(nl.find("z")).type, CellType::kNot);
  EXPECT_EQ(nl.node(nl.find("d")).type, CellType::kXor);
}

TEST(BlifIO, RecognizesOffSetCovers) {
  // NAND expressed as the off-set "11 -> 0".
  std::istringstream in(
      ".model offset\n.inputs a b\n.outputs z\n.names a b z\n11 0\n.end\n");
  const Netlist nl = read_blif(in);
  EXPECT_EQ(nl.node(nl.find("z")).type, CellType::kNand);
}

TEST(BlifIO, RecognizesConstants) {
  std::istringstream in(
      ".model consts\n.inputs a\n.outputs x y z\n"
      ".names one\n1\n.names zero\n"
      ".names a one x\n11 1\n.names a zero y\n1- 1\n-1 1\n"
      ".names a z\n1 1\n.end\n");
  const Netlist nl = read_blif(in);
  EXPECT_EQ(nl.node(nl.find("one")).type, CellType::kConst1);
  EXPECT_EQ(nl.node(nl.find("zero")).type, CellType::kConst0);
  EXPECT_EQ(nl.node(nl.find("z")).type, CellType::kBuf);
}

TEST(BlifIO, RecognizesWideParity) {
  std::istringstream in(
      ".model par\n.inputs a b c\n.outputs z\n.names a b c z\n"
      "100 1\n010 1\n001 1\n111 1\n.end\n");
  const Netlist nl = read_blif(in);
  EXPECT_EQ(nl.node(nl.find("z")).type, CellType::kXor);
}

TEST(BlifIO, RejectsUnmappableCover) {
  // A 2-of-3 majority is none of serelin's gate functions.
  std::istringstream in(
      ".model maj\n.inputs a b c\n.outputs z\n.names a b c z\n"
      "11- 1\n1-1 1\n-11 1\n.end\n");
  EXPECT_THROW(read_blif(in), ParseError);
}

struct BadBlif {
  const char* label;
  const char* text;
};

// CTest names each case after its printed parameter; the default byte dump
// of the two pointers changes with every load address, so print the label.
void PrintTo(const BadBlif& c, std::ostream* os) { *os << c.label; }

class BlifErrors : public ::testing::TestWithParam<BadBlif> {};

TEST_P(BlifErrors, Throws) {
  std::istringstream in(GetParam().text);
  EXPECT_THROW(read_blif(in), ParseError) << GetParam().label;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, BlifErrors,
    ::testing::Values(
        BadBlif{"latch_missing_output", ".model m\n.latch a\n.end\n"},
        BadBlif{"names_missing_output", ".model m\n.names\n.end\n"},
        BadBlif{"mixed_polarity",
                ".model m\n.inputs a b\n.outputs z\n.names a b z\n"
                "11 1\n00 0\n.end\n"},
        BadBlif{"bad_plane_char",
                ".model m\n.inputs a\n.outputs z\n.names a z\nx 1\n.end\n"},
        BadBlif{"row_arity_mismatch",
                ".model m\n.inputs a b\n.outputs z\n.names a b z\n1 1\n.end\n"},
        BadBlif{"unknown_construct", ".model m\n.gate nand2 a=x\n.end\n"},
        BadBlif{"undefined_signal",
                ".model m\n.inputs a\n.outputs z\n.names ghost z\n1 1\n.end\n"}));

TEST(BlifIO, RoundTripPreservesStructureAndFunction) {
  RandomCircuitSpec spec;
  spec.gates = 120;
  spec.dffs = 25;
  spec.inputs = 6;
  spec.outputs = 6;
  spec.seed = 77;
  const Netlist nl = generate_random_circuit(spec);
  std::ostringstream os;
  write_blif(os, nl);
  std::istringstream is(os.str());
  const Netlist back = read_blif(is);
  ASSERT_EQ(back.node_count(), nl.node_count());
  EXPECT_EQ(back.gate_count(), nl.gate_count());
  EXPECT_EQ(back.dff_count(), nl.dff_count());
  EXPECT_EQ(back.outputs().size(), nl.outputs().size());
  for (NodeId id = 0; id < nl.node_count(); ++id) {
    const NodeId id2 = back.find(nl.node(id).name);
    ASSERT_NE(id2, kNullNode) << nl.node(id).name;
    EXPECT_EQ(back.node(id2).type, nl.node(id).type) << nl.node(id).name;
  }
  // Functional agreement over random stimulus.
  Simulator sa(nl, 2), sb(back, 2);
  sa.reset_state();
  sb.reset_state();
  Rng ra(5), rb(5);
  for (int cycle = 0; cycle < 8; ++cycle) {
    sa.randomize_inputs(ra);
    sb.randomize_inputs(rb);
    sa.eval_frame();
    sb.eval_frame();
    for (std::size_t o = 0; o < nl.outputs().size(); ++o) {
      const NodeId po_a = nl.outputs()[o];
      const NodeId po_b = back.find(nl.node(po_a).name);
      for (int w = 0; w < 2; ++w)
        ASSERT_EQ(sa.value(po_a)[w], sb.value(po_b)[w])
            << nl.node(po_a).name << " cycle " << cycle;
    }
    sa.step();
    sb.step();
  }
}

TEST(BlifIO, FileRoundTrip) {
  const Netlist nl = test::tiny_ring();
  const std::string path = ::testing::TempDir() + "/serelin_ring.blif";
  write_blif_file(path, nl);
  const Netlist back = read_blif_file(path);
  EXPECT_EQ(back.name(), nl.name());
  EXPECT_EQ(back.dff_count(), nl.dff_count());
}

TEST(BlifIO, MissingFileThrows) {
  EXPECT_THROW(read_blif_file("/nonexistent/x.blif"), ParseError);
}

}  // namespace
}  // namespace serelin
