// Fig. 2 of the paper as a runnable artifact: the three types of active
// constraints that violations of P0, P1' and P2' induce. For each type a
// minimal circuit is built, the triggering move is applied tentatively,
// and the constraint the checker reports is printed with its witnesses.
#include <cstdio>

#include "netlist/builder.hpp"
#include "rgraph/retiming_graph.hpp"
#include "timing/constraints.hpp"
#include "timing/graph_timing.hpp"

namespace {

using namespace serelin;

const char* kind_name(ConstraintKind k) {
  switch (k) {
    case ConstraintKind::kP0: return "P0 (register count)";
    case ConstraintKind::kP1: return "P1' (long path / setup)";
    case ConstraintKind::kP2: return "P2' (short path / ELW)";
  }
  return "?";
}

void report(const char* title, const RetimingGraph& g, const Retiming& r,
            const TimingParams& tp, double rmin) {
  ConstraintChecker checker(g, tp, rmin);
  // compute() rejects a P0-invalid move, so such a move keeps the labels
  // of the unmoved circuit, as the closure solver's do; the P0 scan reads
  // no labels.
  GraphTiming t(g, tp);
  t.compute(g.valid(r) ? r : g.zero_retiming());
  const auto viol = checker.find_violation(r, t);
  std::printf("%s\n", title);
  if (!viol) {
    std::printf("  no violation (unexpected)\n\n");
    return;
  }
  const Netlist& nl = g.netlist();
  auto name = [&](VertexId v) -> std::string {
    const RVertex& vx = g.vertex(v);
    if (vx.kind == VertexKind::kSink) return "<po>";
    return nl.node(vx.node).name;
  };
  std::printf("  violation: %s\n", kind_name(viol->kind));
  std::printf("  active constraint (p, q) = (%s, %s), required move w = %d\n",
              name(viol->p).c_str(), name(viol->q).c_str(), viol->w);
  std::printf("  meaning: whenever r(%s) decreases, r(%s) must decrease "
              "by %d with it\n\n",
              name(viol->p).c_str(), name(viol->q).c_str(), viol->w);
}

}  // namespace

int main() {
  using namespace serelin;
  CellLibrary lib;
  std::printf("Fig. 2 — the three active-constraint types\n\n");

  {
    // (a) P0: moving v forward drains the register-free edge (u, v).
    NetlistBuilder nb("fig2a");
    nb.input("x");
    nb.gate("u", CellType::kBuf, {"x"});
    nb.gate("v", CellType::kBuf, {"u"});
    nb.dff("d", "v");
    nb.gate("o", CellType::kBuf, {"d"});
    nb.output("o");
    const Netlist nl = nb.build();
    RetimingGraph g(nl, lib);
    Retiming r = g.zero_retiming();
    r[g.vertex_of(nl.find("v"))] = -1;  // w_r(u,v) = -1
    report("(a) P0: tentative r(v) -= 1 with w_r(u,v) = 0", g, r,
           {20.0, 0.0, 2.0}, 0.0);
  }
  {
    // (b) P1': moving z forward extends a combinational path beyond Φ-Ts.
    NetlistBuilder nb("fig2b");
    nb.input("x");
    nb.dff("din", "x");  // keeps the (immovable) input off the long path
    nb.gate("u", CellType::kBuf, {"din"});
    nb.gate("m1", CellType::kBuf, {"u"});
    nb.gate("m2", CellType::kBuf, {"m1"});
    nb.dff("d", "m2");
    nb.gate("z", CellType::kBuf, {"d"});
    nb.dff("d2", "z");
    nb.gate("o", CellType::kBuf, {"d2"});
    nb.output("o");
    const Netlist nl = nb.build();
    RetimingGraph g(nl, lib);
    Retiming r = g.zero_retiming();
    r[g.vertex_of(nl.find("z"))] = -1;  // path u..m2 now runs through z
    report("(b) P1': tentative r(z) -= 1 creates critical path u ~> z "
           "(phi = 3.5)",
           g, r, {3.5, 0.0, 2.0}, 0.0);
  }
  {
    // (c) P2': moving u forward delivers a register onto a short path
    //     u -> v ~> z whose boundary registers on (z, y) must then move.
    NetlistBuilder nb("fig2c");
    nb.input("x");
    nb.gate("u", CellType::kBuf, {"x"});
    nb.dff("d0", "u");
    nb.gate("v", CellType::kBuf, {"d0"});
    nb.gate("z", CellType::kBuf, {"v"});
    nb.dff("d1", "z");
    nb.gate("y", CellType::kBuf, {"d1"});
    nb.gate("tail", CellType::kBuf, {"y"});
    nb.gate("tail2", CellType::kBuf, {"tail"});
    nb.dff("d2", "tail2");
    nb.gate("o", CellType::kAnd, {"d2", "d2"});  // d(AND)=2 keeps the PO
    nb.output("o");                              // short path at R_min
    const Netlist nl = nb.build();
    RetimingGraph g(nl, lib);
    Retiming r = g.zero_retiming();
    r[g.vertex_of(nl.find("v"))] = -1;  // register moves to (v, z): path
                                        // z alone is shorter than R_min
    report("(c) P2': tentative r(v) -= 1 shrinks the short path below "
           "R_min = 2 — fix moves the (z, y) registers past y",
           g, r, {20.0, 0.0, 2.0}, 2.0);
  }
  return 0;
}
