#include <gtest/gtest.h>

#include <sstream>

#include "helpers.hpp"
#include "netlist/bench_io.hpp"
#include "support/check.hpp"

namespace serelin {
namespace {

constexpr const char* kS27Like = R"(
# A small ISCAS89-style circuit (s27 flavour).
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NAND(G2, G12)
G17 = NOT(G11)
)";

TEST(BenchIO, ParsesIscasStyle) {
  std::istringstream in(kS27Like);
  const Netlist nl = read_bench(in, "s27");
  EXPECT_EQ(nl.name(), "s27");
  EXPECT_EQ(nl.inputs().size(), 4u);
  EXPECT_EQ(nl.outputs().size(), 1u);
  EXPECT_EQ(nl.dff_count(), 3u);
  EXPECT_EQ(nl.gate_count(), 10u);
  EXPECT_EQ(nl.node(nl.find("G9")).type, CellType::kNand);
  EXPECT_EQ(nl.node(nl.find("G9")).fanins.size(), 2u);
}

TEST(BenchIO, RoundTripsExactly) {
  std::istringstream in(kS27Like);
  const Netlist nl = read_bench(in, "s27");
  std::ostringstream out;
  write_bench(out, nl);
  std::istringstream in2(out.str());
  const Netlist nl2 = read_bench(in2, "s27");
  ASSERT_EQ(nl2.node_count(), nl.node_count());
  for (NodeId id = 0; id < nl.node_count(); ++id) {
    const Node& a = nl.node(id);
    const NodeId id2 = nl2.find(a.name);
    ASSERT_NE(id2, kNullNode) << a.name;
    const Node& b = nl2.node(id2);
    EXPECT_EQ(a.type, b.type) << a.name;
    ASSERT_EQ(a.fanins.size(), b.fanins.size()) << a.name;
    for (std::size_t k = 0; k < a.fanins.size(); ++k)
      EXPECT_EQ(nl.node(a.fanins[k]).name, nl2.node(b.fanins[k]).name);
  }
  EXPECT_EQ(nl2.outputs().size(), nl.outputs().size());
}

TEST(BenchIO, HandlesWhitespaceAndComments) {
  std::istringstream in(
      "  INPUT( a )\n"
      "# full-line comment\n"
      "OUTPUT(z)   # trailing comment\n"
      "\n"
      "z = NAND( a , a )  // c++-style comment\n");
  const Netlist nl = read_bench(in);
  EXPECT_EQ(nl.gate_count(), 1u);
  EXPECT_EQ(nl.node(nl.find("z")).fanins.size(), 2u);
}

TEST(BenchIO, AcceptsForwardReferences) {
  std::istringstream in(
      "INPUT(x)\n"
      "OUTPUT(q)\n"
      "q = DFF(d)\n"      // d defined later
      "d = AND(x, q)\n");  // feedback through the DFF
  EXPECT_NO_THROW(read_bench(in));
}

TEST(BenchIO, Constants) {
  std::istringstream in(
      "INPUT(x)\nOUTPUT(z)\nc1 = CONST1()\nz = AND(x, c1)\n");
  const Netlist nl = read_bench(in);
  EXPECT_EQ(nl.node(nl.find("c1")).type, CellType::kConst1);
}

struct BadInput {
  const char* label;
  const char* text;
};

// CTest names each case after its printed parameter; the default byte dump
// of the two pointers changes with every load address, so print the label.
void PrintTo(const BadInput& c, std::ostream* os) { *os << c.label; }

class BenchIOErrors : public ::testing::TestWithParam<BadInput> {};

TEST_P(BenchIOErrors, Throws) {
  std::istringstream in(GetParam().text);
  EXPECT_THROW(read_bench(in), ParseError) << GetParam().label;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, BenchIOErrors,
    ::testing::Values(
        BadInput{"missing_paren", "INPUT x\n"},
        BadInput{"unknown_gate", "INPUT(a)\nOUTPUT(z)\nz = FROB(a)\n"},
        BadInput{"input_on_rhs", "INPUT(a)\nOUTPUT(z)\nz = INPUT(a)\n"},
        BadInput{"two_arg_output", "OUTPUT(a, b)\n"},
        BadInput{"dff_two_fanins",
                 "INPUT(a)\nOUTPUT(q)\nq = DFF(a, a)\n"},
        BadInput{"const_with_fanin",
                 "INPUT(a)\nOUTPUT(z)\nz = CONST0(a)\n"},
        BadInput{"undefined_signal", "INPUT(a)\nOUTPUT(z)\nz = NOT(b)\n"},
        BadInput{"redefined_signal",
                 "INPUT(a)\nOUTPUT(z)\nz = NOT(a)\nz = BUF(a)\n"},
        BadInput{"comb_cycle",
                 "INPUT(a)\nOUTPUT(p)\np = AND(a, q)\nq = BUF(p)\n"},
        BadInput{"missing_name", " = NOT(a)\n"},
        BadInput{"unknown_directive", "WIBBLE(a)\n"}));

TEST(BenchIO, FileRoundTrip) {
  const Netlist nl = test::tiny_ring();
  const std::string path = ::testing::TempDir() + "/serelin_ring.bench";
  write_bench_file(path, nl);
  const Netlist nl2 = read_bench_file(path);
  EXPECT_EQ(nl2.name(), "serelin_ring");
  EXPECT_EQ(nl2.node_count(), nl.node_count());
  EXPECT_EQ(nl2.dff_count(), nl.dff_count());
}

TEST(BenchIO, MissingFileThrows) {
  EXPECT_THROW(read_bench_file("/nonexistent/nope.bench"), ParseError);
}

}  // namespace
}  // namespace serelin
