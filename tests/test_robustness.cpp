// Robustness suite: the fault-tolerant front end (diagnostics engine,
// recovering parsers, structural lint/repair), checked numeric parsing,
// deadline-bounded solving with Partial results, and a seeded mini-fuzz
// loop over the corruption engine. The corpus files under tests/corpus/
// pin the exact diagnostic code each class of damage must produce.
#include <gtest/gtest.h>

#include <istream>
#include <sstream>
#include <streambuf>
#include <string>

#include "check/exact_observability.hpp"
#include "check/wd_matrices.hpp"
#include "core/closure_solver.hpp"
#include "core/initializer.hpp"
#include "core/min_period.hpp"
#include "core/solver.hpp"
#include "gen/fault_inject.hpp"
#include "helpers.hpp"
#include "netlist/bench_io.hpp"
#include "netlist/blif_io.hpp"
#include "netlist/validate.hpp"
#include "support/deadline.hpp"
#include "support/diag.hpp"
#include "support/strings.hpp"

#ifndef SERELIN_CORPUS_DIR
#define SERELIN_CORPUS_DIR "tests/corpus"
#endif

namespace serelin {
namespace {

std::string corpus(const char* name) {
  return std::string(SERELIN_CORPUS_DIR) + "/" + name;
}

// ---- checked numeric parsing -------------------------------------------

TEST(ParseInt, AcceptsWholeIntegers) {
  EXPECT_EQ(parse_int("42").value(), 42);
  EXPECT_EQ(parse_int("-7").value(), -7);
  EXPECT_EQ(parse_int("0").value(), 0);
}

TEST(ParseInt, RejectsJunkAndRanges) {
  EXPECT_FALSE(parse_int("banana").has_value());
  EXPECT_FALSE(parse_int("12abc").has_value());
  EXPECT_FALSE(parse_int("").has_value());
  EXPECT_FALSE(parse_int(" 5").has_value());
  EXPECT_FALSE(parse_int("5 ").has_value());
  EXPECT_FALSE(parse_int("99999999999999999999999").has_value());
  EXPECT_FALSE(parse_int("10", 0, 9).has_value());
  EXPECT_TRUE(parse_int("9", 0, 9).has_value());
}

TEST(ParseUintDouble, CheckedVariants) {
  EXPECT_EQ(parse_uint("18446744073709551615").value(), UINT64_MAX);
  EXPECT_FALSE(parse_uint("-1").has_value());
  EXPECT_DOUBLE_EQ(parse_double("2.5").value(), 2.5);
  EXPECT_FALSE(parse_double("inf").has_value());
  EXPECT_FALSE(parse_double("nan").has_value());
  EXPECT_FALSE(parse_double("1.0x").has_value());
}

// ---- corpus: exact diagnostic codes ------------------------------------

TEST(Corpus, TruncatedBench) {
  DiagnosticSink sink;
  const Netlist nl = read_bench_file(corpus("truncated.bench"), sink);
  EXPECT_TRUE(nl.finalized());
  EXPECT_TRUE(sink.has(DiagCode::kBenchSyntax)) << sink.summary();
  // OUTPUT(y) references the dropped signal: an input is synthesized.
  EXPECT_TRUE(sink.has(DiagCode::kNetUndefined)) << sink.summary();
}

TEST(Corpus, DuplicateDefinition) {
  DiagnosticSink sink;
  const Netlist nl = read_bench_file(corpus("dup_def.bench"), sink);
  EXPECT_TRUE(sink.has(DiagCode::kNetMultiplyDriven)) << sink.summary();
  // First definition wins.
  EXPECT_EQ(nl.node(nl.find("y")).type, CellType::kAnd);
}

TEST(Corpus, CombinationalCycle) {
  DiagnosticSink sink;
  const Netlist nl = read_bench_file(corpus("cyclic.bench"), sink);
  EXPECT_TRUE(sink.has(DiagCode::kNetCombCycle)) << sink.summary();
  EXPECT_TRUE(nl.finalized());  // cycle was cut; netlist is legal
}

TEST(Corpus, UndefinedReference) {
  DiagnosticSink sink;
  const Netlist nl = read_bench_file(corpus("undefined.bench"), sink);
  EXPECT_TRUE(sink.has(DiagCode::kNetUndefined)) << sink.summary();
  // The synthesized input keeps the consumer connected.
  EXPECT_NE(nl.find("ghost"), kNullNode);
  EXPECT_EQ(nl.node(nl.find("ghost")).type, CellType::kInput);
}

TEST(Corpus, DffMissingDriver) {
  DiagnosticSink sink;
  const Netlist nl = read_bench_file(corpus("dangling_dff.bench"), sink);
  EXPECT_TRUE(sink.has(DiagCode::kNetDffMissingDriver)) << sink.summary();
  EXPECT_EQ(nl.node(nl.find("q")).type, CellType::kDff);
}

TEST(Corpus, UnknownGateKeyword) {
  DiagnosticSink sink;
  read_bench_file(corpus("bad_gate.bench"), sink);
  EXPECT_TRUE(sink.has(DiagCode::kBenchUnknownGate)) << sink.summary();
}

TEST(Corpus, NonAsciiBytes) {
  DiagnosticSink sink;
  const Netlist nl = read_bench_file(corpus("nonascii.bench"), sink);
  EXPECT_TRUE(sink.has(DiagCode::kBadByte)) << sink.summary();
  // The clean part of the file still parses.
  EXPECT_NE(nl.find("y"), kNullNode);
}

TEST(Corpus, BlifMissingEnd) {
  DiagnosticSink sink;
  const Netlist nl = read_blif_file(corpus("missing_end.blif"), sink);
  EXPECT_TRUE(sink.has(DiagCode::kBlifMissingEnd)) << sink.summary();
  EXPECT_EQ(sink.error_count(), 0u);  // warning only: still usable
  EXPECT_EQ(nl.node(nl.find("y")).type, CellType::kAnd);
}

TEST(Corpus, StrictModeRaisesDiagnosticError) {
  try {
    read_bench_file(corpus("dup_def.bench"));
    FAIL() << "strict parse should throw";
  } catch (const DiagnosticError& e) {
    EXPECT_FALSE(e.diagnostics().empty());
    EXPECT_NE(std::string(e.what()).find("net-multiply-driven"),
              std::string::npos);
  }
}

TEST(Corpus, FileNotFoundVersusUnreadable) {
  DiagnosticSink sink;
  read_bench_file(corpus("no_such_file.bench"), sink);
  EXPECT_TRUE(sink.has(DiagCode::kIoNotFound)) << sink.summary();
  EXPECT_FALSE(sink.has(DiagCode::kIoUnreadable));
}

TEST(Corpus, RecoveringModeNeverThrows) {
  const char* files[] = {"truncated.bench", "dup_def.bench",
                         "cyclic.bench",    "undefined.bench",
                         "bad_gate.bench",  "nonascii.bench",
                         "dangling_dff.bench"};
  for (const char* f : files) {
    DiagnosticSink sink;
    EXPECT_NO_THROW({
      const Netlist nl = read_bench_file(corpus(f), sink);
      EXPECT_TRUE(nl.finalized()) << f;
    }) << f;
  }
  DiagnosticSink sink;
  EXPECT_NO_THROW(read_blif_file(corpus("missing_end.blif"), sink));
}

// ---- stream-error detection --------------------------------------------

// A streambuf whose underflow throws once some bytes were served: istream
// swallows the exception and sets badbit — exactly a failing disk read.
class FlakyBuf : public std::streambuf {
 public:
  explicit FlakyBuf(std::string head) : head_(std::move(head)) {
    setg(head_.data(), head_.data(), head_.data() + head_.size());
  }

 protected:
  int_type underflow() override { throw std::runtime_error("disk died"); }

 private:
  std::string head_;
};

TEST(StreamError, BadBitBecomesDiagnostic) {
  FlakyBuf buf("INPUT(a)\nOUTPUT(y)\ny = BUF(a)\n");
  std::istream in(&buf);
  in.exceptions(std::ios::goodbit);  // stream swallows, sets badbit
  DiagnosticSink sink;
  const Netlist nl = read_bench(in, "flaky", sink);
  EXPECT_TRUE(in.bad());
  EXPECT_TRUE(sink.has(DiagCode::kIoStreamError)) << sink.summary();
  EXPECT_TRUE(nl.finalized());
}

// ---- structural lint + repair ------------------------------------------

TEST(Lint, FindsDeadLogicAndUnusedInputs) {
  NetlistBuilder b("lintme");
  b.input("a");
  b.input("unused");
  b.gate("y", CellType::kBuf, {"a"});
  b.output("y");
  b.gate("dead", CellType::kNot, {"a"});      // no fanout, not a PO
  b.gate("island", CellType::kBuf, {"dead"});  // fans out only to nothing
  const Netlist nl = b.build();

  DiagnosticSink sink;
  const std::size_t findings = lint_netlist(nl, sink);
  EXPECT_GE(findings, 3u);
  EXPECT_TRUE(sink.has(DiagCode::kLintUnusedInput)) << sink.summary();
  EXPECT_TRUE(sink.has(DiagCode::kLintDanglingNet)) << sink.summary();
  EXPECT_TRUE(sink.has(DiagCode::kLintUnreferenced)) << sink.summary();
  EXPECT_EQ(sink.error_count(), 0u);  // all warn-level

  DiagnosticSink rsink;
  const Netlist repaired = repair_netlist(nl, rsink);
  EXPECT_TRUE(repaired.finalized());
  EXPECT_EQ(repaired.find("dead"), kNullNode);
  EXPECT_EQ(repaired.find("island"), kNullNode);
  EXPECT_NE(repaired.find("unused"), kNullNode);  // interface preserved
  EXPECT_NE(repaired.find("y"), kNullNode);

  DiagnosticSink clean;
  lint_netlist(repaired, clean);
  EXPECT_FALSE(clean.has(DiagCode::kLintDanglingNet)) << clean.summary();
  EXPECT_FALSE(clean.has(DiagCode::kLintUnreferenced)) << clean.summary();
}

TEST(Lint, NoOutputsIsAnError) {
  NetlistBuilder b("mute");
  b.input("a");
  b.gate("g", CellType::kBuf, {"a"});
  const Netlist nl = b.build();
  DiagnosticSink sink;
  lint_netlist(nl, sink);
  EXPECT_TRUE(sink.has(DiagCode::kLintNoOutputs)) << sink.summary();
  EXPECT_GT(sink.error_count(), 0u);
}

// ---- deadlines, cancellation, Partial results --------------------------

TEST(Deadline, DefaultNeverExpires) {
  const Deadline d;
  EXPECT_TRUE(d.unlimited());
  EXPECT_FALSE(d.expired());
  EXPECT_EQ(d.status(), StopReason::kNone);
}

TEST(Deadline, ExpiredAndCancelled) {
  EXPECT_EQ(Deadline::after(0.0).status(), StopReason::kDeadline);
  CancelToken token;
  const Deadline d = Deadline::with_token(token);
  EXPECT_FALSE(d.expired());
  token.cancel();
  EXPECT_EQ(d.status(), StopReason::kCancelled);
  EXPECT_THROW(d.check("test"), CancelledError);
}

TEST(Deadline, SolverReturnsFeasiblePartial) {
  const Netlist nl = test::tiny_ring();
  CellLibrary lib;
  const RetimingGraph g(nl, lib);
  const InitResult init = initialize_retiming(g, {});
  const ObsGains gains = test::gains_for(g, nl);

  SolverOptions so;
  so.timing = init.timing;
  so.rmin = init.rmin;
  so.deadline = Deadline::after(0.0);  // already expired
  const SolverResult res = MinObsWinSolver(g, gains, so).solve(init.r);
  EXPECT_TRUE(res.partial());
  EXPECT_EQ(res.stop_reason, StopReason::kDeadline);
  EXPECT_FALSE(res.stop_detail.empty());
  EXPECT_TRUE(g.valid(res.r));  // Partial still carries a legal retiming
  EXPECT_EQ(res.r, init.r);     // nothing was committed in zero time
}

TEST(Deadline, ClosureSolverHonoursCancellation) {
  const Netlist nl = test::tiny_ring();
  CellLibrary lib;
  const RetimingGraph g(nl, lib);
  const InitResult init = initialize_retiming(g, {});
  const ObsGains gains = test::gains_for(g, nl);

  CancelToken token;
  token.cancel();
  SolverOptions so;
  so.timing = init.timing;
  so.rmin = init.rmin;
  so.deadline = Deadline::with_token(token);
  const SolverResult res = ClosureSolver(g, gains, so).solve(init.r);
  EXPECT_TRUE(res.partial());
  EXPECT_EQ(res.stop_reason, StopReason::kCancelled);
  EXPECT_TRUE(g.valid(res.r));
}

TEST(Deadline, UnlimitedMatchesBaseline) {
  // A never-expiring deadline must not change solver results.
  const Netlist nl = test::tiny_reconvergent();
  CellLibrary lib;
  const RetimingGraph g(nl, lib);
  const InitResult init = initialize_retiming(g, {});
  const ObsGains gains = test::gains_for(g, nl);
  SolverOptions base;
  base.timing = init.timing;
  base.rmin = init.rmin;
  const SolverResult a = MinObsWinSolver(g, gains, base).solve(init.r);
  SolverOptions timed = base;
  timed.deadline = Deadline::after(3600.0);
  const SolverResult b = MinObsWinSolver(g, gains, timed).solve(init.r);
  EXPECT_EQ(a.r, b.r);
  EXPECT_EQ(a.objective_gain, b.objective_gain);
  EXPECT_FALSE(b.partial());
}

TEST(Deadline, MinPeriodPartialStaysLegal) {
  const Netlist nl = test::tiny_ring();
  CellLibrary lib;
  const RetimingGraph g(nl, lib);
  MinPeriodRetimer::Options opt;
  opt.deadline = Deadline::after(0.0);
  const auto res = MinPeriodRetimer(g, opt).minimize();
  EXPECT_TRUE(res.partial());
  EXPECT_TRUE(g.valid(res.r));
}

TEST(Deadline, WdMatricesThrowsCancelled) {
  const Netlist nl = test::tiny_ring();
  CellLibrary lib;
  const RetimingGraph g(nl, lib);
  EXPECT_THROW(WdMatrices(g, Deadline::after(0.0)), CancelledError);
  // And wd_min_period under an expired deadline still returns a legal
  // feasibility-proven result (the critical-path probe) that says why it
  // stopped.
  const WdMatrices wd(g);
  const auto res = wd_min_period(g, wd, 0.0, Deadline::after(0.0));
  EXPECT_TRUE(g.valid(res.r));
  ASSERT_TRUE(res.partial());
  EXPECT_FALSE(res.stop_detail.empty());
}

TEST(Deadline, ObservabilityThrowsCancelled) {
  const Netlist nl = test::tiny_ring();
  SimConfig cfg;
  cfg.patterns = 64;
  cfg.frames = 2;
  cfg.warmup = 1;
  cfg.deadline = Deadline::after(0.0);
  ObservabilityAnalyzer sig(nl, cfg);
  EXPECT_THROW(sig.run(), CancelledError);
  EXPECT_THROW(exact_observability(nl, cfg), CancelledError);
}

// ---- seeded mini-fuzz over the corruption engine ------------------------

TEST(FaultInject, RecoveringParseSurvivesCorruption) {
  Rng rng(0xfa017ULL);
  for (int iter = 0; iter < 60; ++iter) {
    const Netlist victim = random_victim(rng);
    std::ostringstream os;
    const bool blif = iter % 2 == 0;
    if (blif)
      write_blif(os, victim);
    else
      write_bench(os, victim);
    const std::string text = mutate_text(os.str(), rng);

    DiagnosticSink sink;
    std::istringstream is(text);
    Netlist nl;
    ASSERT_NO_THROW(nl = blif ? read_blif(is, "fuzz", sink)
                              : read_bench(is, "fuzz", sink))
        << "iter " << iter;
    EXPECT_TRUE(nl.finalized()) << "iter " << iter;

    // Strict mode on the same bytes: only ParseError may escape.
    std::istringstream is2(text);
    try {
      if (blif)
        read_blif(is2, "fuzz");
      else
        read_bench(is2, "fuzz");
    } catch (const ParseError&) {
      // designed rejection path
    }
  }
}

}  // namespace
}  // namespace serelin
