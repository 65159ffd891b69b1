#include "gen/paper_examples.hpp"

#include "netlist/builder.hpp"
#include "support/check.hpp"
#include "support/strings.hpp"

namespace serelin {

Netlist fig1_circuit(int ladder) {
  SERELIN_REQUIRE(ladder >= 1, "the ladder needs at least one rung");
  NetlistBuilder nb("fig1");
  nb.input("x");
  nb.input("m_j");
  nb.input("m_j2");
  std::string prev = "x";
  for (int i = 1; i <= ladder; ++i) {
    const std::string a = numbered("a", i);
    const std::string s = numbered("s", i);
    const std::string t = numbered("t", i);
    nb.gate(a, CellType::kBuf, {prev});
    nb.dff(s, a);                          // direct latch: short-path anchor
    nb.gate(t, CellType::kXor, {s, "x"});  // XOR tap keeps obs(s_i) = 1 and
    nb.output(t);                          // the rung short path at d(XOR)
    prev = a;
  }
  nb.gate("F", CellType::kBuf, {prev});
  nb.gate("H", CellType::kBuf, {"F"});  // fully observable side path
  nb.output("H");
  nb.dff("fd", "F");    // the register of interest, on edge (F, G)
  nb.dff("dm", "m_j");  // mask register, also consumed by G
  nb.gate("G", CellType::kAnd, {"fd", "dm"});
  nb.gate("J", CellType::kAnd, {"G", "m_j2"});
  nb.output("J");
  return nb.build();
}

}  // namespace serelin
