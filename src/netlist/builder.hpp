// NetlistBuilder: name-based, order-independent netlist construction.
//
// .bench files (and tests) reference signals before they are defined —
// feedback through flip-flops makes that unavoidable. The builder records
// declarations by name, then build() resolves references, orders node
// creation legally, patches flip-flop feedback and finalizes the netlist.
#pragma once

#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "support/diag.hpp"

namespace serelin {

class NetlistBuilder {
 public:
  explicit NetlistBuilder(std::string circuit_name = "circuit");

  /// Declares a primary input signal.
  NetlistBuilder& input(std::string name);

  /// Declares that signal `name` drives a primary output.
  NetlistBuilder& output(std::string name);

  /// Declares a flip-flop: q = DFF(d).
  NetlistBuilder& dff(std::string q, std::string d);

  /// Declares a combinational gate: out = type(fanins...).
  NetlistBuilder& gate(std::string out, CellType type,
                       std::vector<std::string> fanins);

  /// Declares a constant signal.
  NetlistBuilder& constant(std::string name, bool value);

  /// Resolves everything and returns the finalized netlist. Throws
  /// ParseError on undefined signals, redefinitions, or combinational
  /// cycles. The builder is consumed (one-shot).
  Netlist build();

  /// Recovering build: structural defects become diagnostics in `sink`
  /// and are repaired instead of aborting the build —
  ///   * multiply-driven signal        -> first definition wins
  ///   * undefined reference           -> a primary input is synthesized
  ///   * DFF with an undefined D pin   -> same, with its own code
  ///   * combinational cycle           -> one member gate is demoted to a
  ///                                      synthesized input (cycle cut)
  ///   * illegal arity / empty names   -> declaration dropped or demoted
  /// Every repair is an ERROR-severity diagnostic (the input was wrong);
  /// the returned netlist is always finalized and structurally legal.
  /// Callers wanting strict semantics use sink.throw_if_errors() after.
  /// Diagnostics name each decl's source line when it was tagged with
  /// at_line().
  Netlist build(DiagnosticSink& sink);

  /// Tags the most recently added declaration with its source line, so
  /// build(sink) diagnostics point at the offending input line.
  NetlistBuilder& at_line(int line);

 private:
  struct Decl {
    std::string name;
    CellType type;
    std::vector<std::string> fanins;
    int line = 0;
  };

  std::string circuit_name_;
  std::vector<Decl> decls_;
  std::vector<std::string> output_names_;
  bool built_ = false;
};

}  // namespace serelin
