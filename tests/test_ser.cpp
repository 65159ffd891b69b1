#include <gtest/gtest.h>

#include "check/exact_observability.hpp"
#include "helpers.hpp"
#include "netlist/builder.hpp"
#include "ser/ser_analyzer.hpp"

namespace serelin {
namespace {

SerOptions options(double period, bool timing_masking = true) {
  SerOptions opt;
  opt.timing = {period, 0.0, 2.0};
  opt.sim.patterns = 512;
  opt.sim.frames = 5;
  opt.sim.warmup = 10;
  opt.timing_masking = timing_masking;
  return opt;
}

TEST(SerAnalyzer, PipelineHandComputation) {
  // tiny_pipeline at Φ = 10: every node fully observable; windows are the
  // 2-unit base everywhere (single paths), so each contributor adds
  // err(type) * 2/10.
  const Netlist nl = test::tiny_pipeline();
  CellLibrary lib;
  const SerReport rep = analyze_ser(nl, lib, options(10.0));
  const double w = 2.0 / 10.0;
  const double expect_comb =
      (2 * lib.err(CellType::kBuf) + lib.err(CellType::kNot)) * w;
  const double expect_seq = lib.err(CellType::kDff) * w;
  EXPECT_NEAR(rep.combinational, expect_comb, 1e-12);
  EXPECT_NEAR(rep.sequential, expect_seq, 1e-12);
  EXPECT_NEAR(rep.total, expect_comb + expect_seq, 1e-12);
}

TEST(SerAnalyzer, TimingMaskingReducesSer) {
  const Netlist nl = test::tiny_reconvergent();
  CellLibrary lib;
  const SerReport with = analyze_ser(nl, lib, options(20.0, true));
  const SerReport without = analyze_ser(nl, lib, options(20.0, false));
  EXPECT_LT(with.total, without.total);
  EXPECT_GT(with.total, 0.0);
}

TEST(SerAnalyzer, LongerPeriodShrinksWindowShare) {
  // |ELW|/Φ falls as Φ grows (same windows, longer cycle).
  const Netlist nl = test::tiny_pipeline();
  CellLibrary lib;
  const SerReport fast = analyze_ser(nl, lib, options(5.0));
  const SerReport slow = analyze_ser(nl, lib, options(50.0));
  EXPECT_GT(fast.total, slow.total);
}

TEST(SerAnalyzer, ContributionsSumToTotal) {
  const Netlist nl = test::tiny_ring();
  CellLibrary lib;
  const SerReport rep = analyze_ser(nl, lib, options(10.0));
  double sum = 0.0;
  for (double c : rep.contribution) sum += c;
  EXPECT_NEAR(sum, rep.total, 1e-15);
}

TEST(SerAnalyzer, MaskedLogicContributesLess) {
  // Two identical buffers, one behind an AND mask: the masked one must
  // contribute less SER.
  NetlistBuilder nb("mask");
  nb.input("x");
  nb.input("m");
  nb.gate("open", CellType::kBuf, {"x"});
  nb.gate("gated", CellType::kBuf, {"x"});
  nb.gate("sq", CellType::kAnd, {"gated", "m"});
  nb.output("open");
  nb.output("sq");
  const Netlist nl = nb.build();
  CellLibrary lib;
  const SerReport rep = analyze_ser(nl, lib, options(10.0));
  EXPECT_LT(rep.contribution[nl.find("gated")],
            rep.contribution[nl.find("open")]);
}

TEST(SerAnalyzer, RequiresPositivePeriod) {
  const Netlist nl = test::tiny_pipeline();
  CellLibrary lib;
  SerOptions bad = options(0.0);
  EXPECT_THROW(analyze_ser(nl, lib, bad), PreconditionError);
}

TEST(SerAnalyzer, DeterministicAcrossRuns) {
  const Netlist nl = test::tiny_ring();
  CellLibrary lib;
  const SerReport a = analyze_ser(nl, lib, options(10.0));
  const SerReport b = analyze_ser(nl, lib, options(10.0));
  EXPECT_DOUBLE_EQ(a.total, b.total);
}

TEST(SerAnalyzer, ExactModeAgreesOnSmallCircuits) {
  const Netlist nl = test::tiny_reconvergent();
  CellLibrary lib;
  const SerOptions opt = options(10.0);
  const double a = analyze_ser(nl, lib, opt).total;
  const double b =
      analyze_ser(nl, lib, opt, exact_observability(nl, opt.sim).obs).total;
  // First-order ODC on this reconvergent block is close but not exact.
  EXPECT_NEAR(a, b, 0.15 * b);
}

}  // namespace
}  // namespace serelin
