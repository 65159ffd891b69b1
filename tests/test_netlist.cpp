#include <gtest/gtest.h>

#include <ostream>

#include "helpers.hpp"
#include "netlist/builder.hpp"
#include "netlist/cell.hpp"
#include "netlist/cell_library.hpp"
#include "netlist/netlist.hpp"
#include "support/check.hpp"

namespace serelin {
namespace {

TEST(Cell, NameRoundTrip) {
  for (int i = 0; i < kNumCellTypes; ++i) {
    const auto t = static_cast<CellType>(i);
    EXPECT_EQ(parse_cell_type(cell_type_name(t)), t);
  }
}

TEST(Cell, ParseIsCaseInsensitiveWithAliases) {
  EXPECT_EQ(parse_cell_type("nand"), CellType::kNand);
  EXPECT_EQ(parse_cell_type("Buf"), CellType::kBuf);
  EXPECT_EQ(parse_cell_type("BUFF"), CellType::kBuf);
  EXPECT_EQ(parse_cell_type("inv"), CellType::kNot);
  EXPECT_EQ(parse_cell_type("vdd"), CellType::kConst1);
  EXPECT_THROW(parse_cell_type("FROB"), ParseError);
}

TEST(Cell, Classification) {
  EXPECT_TRUE(is_combinational_source(CellType::kInput));
  EXPECT_TRUE(is_combinational_source(CellType::kDff));
  EXPECT_TRUE(is_combinational_source(CellType::kConst0));
  EXPECT_FALSE(is_combinational_source(CellType::kNand));
  EXPECT_TRUE(is_gate(CellType::kXor));
  EXPECT_FALSE(is_gate(CellType::kDff));
  EXPECT_FALSE(is_gate(CellType::kConst1));
}

struct EvalCase {
  CellType type;
  std::vector<std::uint64_t> in;
  std::uint64_t expect;
};

// CTest names each case after its printed parameter; the default byte dump
// holds heap pointers that change from run to run, so print "AND_2in".
void PrintTo(const EvalCase& c, std::ostream* os) {
  *os << cell_type_name(c.type) << '_' << c.in.size() << "in";
}

class CellEval : public ::testing::TestWithParam<EvalCase> {};

TEST_P(CellEval, TruthTable) {
  const auto& c = GetParam();
  EXPECT_EQ(eval_cell(c.type, c.in), c.expect);
}

INSTANTIATE_TEST_SUITE_P(
    Gates, CellEval,
    ::testing::Values(
        EvalCase{CellType::kBuf, {0xF0F0}, 0xF0F0},
        EvalCase{CellType::kNot, {0x0F0F}, ~0x0F0FULL},
        EvalCase{CellType::kAnd, {0xFF00, 0xF0F0}, 0xF000},
        EvalCase{CellType::kNand, {0xFF00, 0xF0F0}, ~0xF000ULL},
        EvalCase{CellType::kOr, {0xFF00, 0xF0F0}, 0xFFF0},
        EvalCase{CellType::kNor, {0xFF00, 0xF0F0}, ~0xFFF0ULL},
        EvalCase{CellType::kXor, {0xFF00, 0xF0F0}, 0x0FF0},
        EvalCase{CellType::kXnor, {0xFF00, 0xF0F0}, ~0x0FF0ULL},
        EvalCase{CellType::kAnd, {0xF, 0x3, 0x5}, 0x1},
        EvalCase{CellType::kXor, {0x1, 0x1, 0x1}, 0x1},
        EvalCase{CellType::kConst0, {}, 0},
        EvalCase{CellType::kConst1, {}, ~0ULL},
        EvalCase{CellType::kDff, {0xAB}, 0xAB}));

TEST(CellLibrary, DefaultsArePositiveForLogic) {
  CellLibrary lib;
  EXPECT_GT(lib.delay(CellType::kNand), 0.0);
  EXPECT_GT(lib.err(CellType::kDff), 0.0);
  EXPECT_GT(lib.err(CellType::kXor), lib.err(CellType::kBuf));
  EXPECT_DOUBLE_EQ(lib.delay(CellType::kInput), 0.0);
  EXPECT_DOUBLE_EQ(lib.err(CellType::kInput), 0.0);
}

TEST(CellLibrary, SetParamsOverrides) {
  CellLibrary lib;
  lib.set_params(CellType::kNand, {7.0, 5e-6, 9.0});
  EXPECT_DOUBLE_EQ(lib.delay(CellType::kNand), 7.0);
  EXPECT_DOUBLE_EQ(lib.err(CellType::kNand), 5e-6);
  EXPECT_DOUBLE_EQ(lib.area(CellType::kNand), 9.0);
}

TEST(Netlist, TinyPipelineStructure) {
  const Netlist nl = test::tiny_pipeline();
  EXPECT_EQ(nl.node_count(), 5u);
  EXPECT_EQ(nl.gate_count(), 3u);
  EXPECT_EQ(nl.dff_count(), 1u);
  EXPECT_EQ(nl.inputs().size(), 1u);
  EXPECT_EQ(nl.outputs().size(), 1u);
  EXPECT_TRUE(nl.is_output(nl.find("c")));
  EXPECT_FALSE(nl.is_output(nl.find("a")));
  EXPECT_EQ(nl.find("nope"), kNullNode);
}

TEST(Netlist, GateOrderIsTopological) {
  const Netlist nl = test::tiny_reconvergent();
  const auto& order = nl.gate_order();
  // g3 consumes g1 and g2, so it must come after both.
  auto pos = [&](const char* name) {
    const NodeId id = nl.find(name);
    for (std::size_t i = 0; i < order.size(); ++i)
      if (order[i] == id) return i;
    ADD_FAILURE() << name << " not in gate order";
    return std::size_t{0};
  };
  EXPECT_GT(pos("g3"), pos("g1"));
  EXPECT_GT(pos("g3"), pos("g2"));
}

TEST(Netlist, FanoutsAreDerived) {
  const Netlist nl = test::tiny_ring();
  const NodeId ff1 = nl.find("ff1");
  // ff1 feeds inv1 and tap.
  EXPECT_EQ(nl.node(ff1).fanouts.size(), 2u);
}

TEST(Netlist, RejectsCombinationalCycle) {
  NetlistBuilder b("cyc");
  b.input("x");
  b.gate("a", CellType::kAnd, {"x", "b"});
  b.gate("b", CellType::kBuf, {"a"});
  b.output("b");
  EXPECT_THROW(b.build(), ParseError);
}

TEST(Netlist, AcceptsCycleThroughDff) {
  NetlistBuilder b("seq");
  b.input("x");
  b.dff("s", "a");
  b.gate("a", CellType::kAnd, {"x", "s"});
  b.output("a");
  EXPECT_NO_THROW(b.build());
}

TEST(Netlist, RejectsDuplicateNames) {
  NetlistBuilder b("dup");
  b.input("x");
  b.gate("x", CellType::kBuf, {"x"});
  b.output("x");
  EXPECT_THROW(b.build(), ParseError);
}

TEST(Netlist, RejectsUndefinedSignal) {
  NetlistBuilder b("undef");
  b.input("x");
  b.gate("g", CellType::kAnd, {"x", "ghost"});
  b.output("g");
  EXPECT_THROW(b.build(), ParseError);
}

TEST(Netlist, RejectsBadArity) {
  Netlist nl("arity");
  const NodeId x = nl.add_node("x", CellType::kInput, {});
  nl.add_node("n", CellType::kNot, {x, x});  // NOT with 2 fanins
  EXPECT_THROW(nl.finalize(), ParseError);
}

TEST(Netlist, AddNodeValidation) {
  Netlist nl("v");
  EXPECT_THROW(nl.add_node("", CellType::kInput, {}), PreconditionError);
  nl.add_node("x", CellType::kInput, {});
  EXPECT_THROW(nl.add_node("x", CellType::kInput, {}), PreconditionError);
  EXPECT_THROW(nl.add_node("g", CellType::kBuf, {99}), PreconditionError);
}

TEST(Netlist, FinalizeOnlyOnce) {
  Netlist nl("f");
  const NodeId x = nl.add_node("x", CellType::kInput, {});
  nl.mark_output(x);
  nl.finalize();
  EXPECT_THROW(nl.finalize(), PreconditionError);
  EXPECT_THROW(nl.mark_output(x), PreconditionError);
}

TEST(Netlist, TotalArea) {
  CellLibrary lib;
  const Netlist nl = test::tiny_pipeline();
  // buf + not + buf + dff (+ input: area 0)
  const double expect = 2 * lib.area(CellType::kBuf) +
                        lib.area(CellType::kNot) + lib.area(CellType::kDff);
  EXPECT_DOUBLE_EQ(nl.total_area(lib), expect);
}

TEST(Builder, ConstantsAndMixedFanout) {
  NetlistBuilder b("mix");
  b.input("x");
  b.constant("one", true);
  b.constant("zero", false);
  b.gate("g", CellType::kAnd, {"x", "one"});
  b.gate("h", CellType::kOr, {"g", "zero"});
  b.dff("s", "h");
  b.gate("k", CellType::kXor, {"s", "g"});
  b.output("k");
  b.output("g");  // g is both internal and a PO
  const Netlist nl = b.build();
  EXPECT_EQ(nl.outputs().size(), 2u);
  EXPECT_TRUE(nl.is_output(nl.find("g")));
  EXPECT_EQ(nl.gate_count(), 3u);
}

TEST(Builder, DeepChainNoStackOverflow) {
  NetlistBuilder b("deep");
  b.input("x");
  std::string prev = "x";
  for (int i = 0; i < 60000; ++i) {
    const std::string cur = "n" + std::to_string(i);
    b.gate(cur, CellType::kNot, {prev});
    prev = cur;
  }
  b.output(prev);
  const Netlist nl = b.build();
  EXPECT_EQ(nl.gate_count(), 60000u);
}

}  // namespace
}  // namespace serelin
