// serelin_lint contract tests: every rule fires exactly where the fixture
// says it should, suppression works, and the real tree is clean.
//
// The linter is exercised as a subprocess — the same binary, flags and
// exit codes CI's `static` stage uses (tools/verify.sh), so these tests
// pin the *tool contract*, not internal helpers. Fixture trees live under
// tests/lint_corpus/<rule>/{good,bad}/ (docs/STATIC_ANALYSIS.md).
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <string>

namespace {

struct LintRun {
  int code = -1;
  std::string out;  // stdout + stderr merged
};

LintRun run_lint(const std::string& args) {
  const std::string cmd = std::string(SERELIN_LINT_BIN) + " " + args + " 2>&1";
  LintRun run;
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return run;
  char buf[4096];
  while (fgets(buf, sizeof buf, pipe) != nullptr) run.out += buf;
  const int status = pclose(pipe);
  if (WIFEXITED(status)) run.code = WEXITSTATUS(status);
  return run;
}

std::string corpus(const std::string& sub) {
  return std::string(SERELIN_LINT_CORPUS_DIR) + "/" + sub;
}

constexpr const char* kAllRules[] = {
    "no-unseeded-random",     "no-wallclock",
    "no-unordered-range-for", "wd-dense-gated",
    "no-bare-artifact-write", "diag-code-name",
    "diag-code-documented",   "exit-code-registry",
    "trace-macro-pure",       "lock-order-cycle",
    "deadline-poll-coverage", "checkpoint-section-pairing",
    "counter-registry",       "protocol-schema",
    "unused-nolint",
};

}  // namespace

TEST(LintCorpus, ListRulesShowsTheFullCatalogue) {
  const LintRun run = run_lint("--list-rules");
  EXPECT_EQ(run.code, 0);
  for (const char* rule : kAllRules)
    EXPECT_NE(run.out.find(std::string("serelin-") + rule),
              std::string::npos)
        << "missing rule in --list-rules: " << rule;
}

TEST(LintCorpus, EachLexicalRuleFiresExactlyWhereExpected) {
  struct Case {
    const char* rule;
    const char* anchor;  // expected "<file>:<line>" of the one finding
  };
  const Case cases[] = {
      {"no-unseeded-random", "src/sample.cpp:5"},
      {"no-wallclock", "src/sample.cpp:5"},
      {"no-unordered-range-for", "src/core/sample.cpp:9"},
      {"wd-dense-gated", "src/sample.cpp:6"},
      {"no-bare-artifact-write", "src/sample.cpp:7"},
      {"diag-code-name", "src/support/diag.hpp:8"},
      {"diag-code-documented", "src/support/diag.cpp:8"},
      {"exit-code-registry", "tools/serelin_cli.cpp:7"},
      {"trace-macro-pure", "src/sample.cpp:6"},
  };
  for (const Case& c : cases) {
    const LintRun bad = run_lint("--root " +
                                 corpus(std::string(c.rule) + "/bad"));
    EXPECT_EQ(bad.code, 1) << c.rule << " bad fixture:\n" << bad.out;
    EXPECT_NE(bad.out.find(std::string(c.anchor) + ": serelin-" + c.rule +
                           ":"),
              std::string::npos)
        << c.rule << " did not fire at " << c.anchor << ":\n" << bad.out;
    EXPECT_NE(bad.out.find("1 finding(s)"), std::string::npos)
        << c.rule << " bad fixture must yield exactly one finding:\n"
        << bad.out;

    const LintRun good = run_lint("--root " +
                                  corpus(std::string(c.rule) + "/good"));
    EXPECT_EQ(good.code, 0) << c.rule << " good fixture:\n" << good.out;
    EXPECT_NE(good.out.find("0 finding(s)"), std::string::npos);
  }
}

// The flow-aware and registry-pairing passes: each bad fixture plants one
// contract violation and the finding must land on the planted line; the
// matching good fixture differs only in honoring the contract.
TEST(LintCorpus, EachContractPassFiresExactlyWhereExpected) {
  struct Case {
    const char* rule;
    const char* anchor;  // expected "<file>:<line>" of the one finding
  };
  const Case cases[] = {
      {"lock-order-cycle", "src/sample.cpp:10"},
      {"deadline-poll-coverage", "src/core/sample.cpp:15"},
      {"checkpoint-section-pairing", "src/flow/sample.cpp:8"},
      {"counter-registry", "src/support/metrics.cpp:8"},
      {"protocol-schema", "src/serve/sample.cpp:7"},
      {"unused-nolint", "src/sample.cpp:6"},
  };
  for (const Case& c : cases) {
    const LintRun bad = run_lint("--root " +
                                 corpus(std::string(c.rule) + "/bad"));
    EXPECT_EQ(bad.code, 1) << c.rule << " bad fixture:\n" << bad.out;
    EXPECT_NE(bad.out.find(std::string(c.anchor) + ": serelin-" + c.rule +
                           ":"),
              std::string::npos)
        << c.rule << " did not fire at " << c.anchor << ":\n" << bad.out;
    EXPECT_NE(bad.out.find("1 finding(s)"), std::string::npos)
        << c.rule << " bad fixture must yield exactly one finding:\n"
        << bad.out;

    const LintRun good = run_lint("--root " +
                                  corpus(std::string(c.rule) + "/good"));
    EXPECT_EQ(good.code, 0) << c.rule << " good fixture:\n" << good.out;
    EXPECT_NE(good.out.find("0 finding(s)"), std::string::npos);
  }
}

// The inverted-cycle witness must name both edges so the report is
// actionable without re-running anything.
TEST(LintCorpus, LockOrderCycleReportNamesBothEdges) {
  const LintRun bad =
      run_lint("--root " + corpus("lock-order-cycle/bad"));
  EXPECT_NE(bad.out.find("src/sample.cpp:10"), std::string::npos) << bad.out;
  EXPECT_NE(bad.out.find("src/sample.cpp:15"), std::string::npos) << bad.out;
  EXPECT_NE(bad.out.find("g_a"), std::string::npos) << bad.out;
  EXPECT_NE(bad.out.find("g_b"), std::string::npos) << bad.out;
}

TEST(LintCorpus, OnlyFilterRestrictsReportingToNamedFiles) {
  // The violation is in src/sample.cpp; asking only about another file
  // reports nothing (but analysis still ran whole-tree).
  const LintRun miss =
      run_lint("--only src/other.cpp --root " +
               corpus("no-unseeded-random/bad"));
  EXPECT_EQ(miss.code, 0) << miss.out;
  const LintRun hit =
      run_lint("--only src/sample.cpp --root " +
               corpus("no-unseeded-random/bad"));
  EXPECT_EQ(hit.code, 1) << hit.out;
  EXPECT_NE(hit.out.find("src/sample.cpp:5"), std::string::npos) << hit.out;
}

TEST(LintCorpus, NolintSuppressesOnlyTheNamedRule) {
  const LintRun run =
      run_lint("--root " + corpus("nolint"));
  EXPECT_EQ(run.code, 1) << run.out;
  // Lines 6 (named rule) and 7 (bare NOLINT) are suppressed; line 8 names
  // a different rule, so its finding survives — and because that marker
  // suppressed nothing, it is itself flagged as stale.
  EXPECT_EQ(run.out.find("sample.cpp:6"), std::string::npos) << run.out;
  EXPECT_EQ(run.out.find("sample.cpp:7"), std::string::npos) << run.out;
  EXPECT_NE(run.out.find("src/sample.cpp:8: serelin-no-unseeded-random"),
            std::string::npos)
      << run.out;
  EXPECT_NE(run.out.find("src/sample.cpp:8: serelin-unused-nolint"),
            std::string::npos)
      << run.out;
  EXPECT_NE(run.out.find("2 finding(s)"), std::string::npos) << run.out;
}

TEST(LintCorpus, RuleFilterRestrictsTheRun) {
  const LintRun run =
      run_lint("--rule serelin-no-wallclock --root " +
               corpus("no-unseeded-random/bad"));
  EXPECT_EQ(run.code, 0) << run.out;  // the only violation is filtered out
}

TEST(LintCorpus, UsageErrorsExit64) {
  EXPECT_EQ(run_lint("--definitely-not-a-flag").code, 64);
  EXPECT_EQ(run_lint("--rule no-such-rule").code, 64);
  EXPECT_EQ(run_lint("--root /nonexistent-serelin-root").code, 64);
}

// The acceptance gate: the shipped tree has zero findings.
TEST(LintTree, RealTreeIsCleanUnderAllLexicalRules) {
  const LintRun run = run_lint(std::string("--root ") +
                               SERELIN_REPO_ROOT);
  EXPECT_EQ(run.code, 0) << run.out;
  EXPECT_NE(run.out.find("0 finding(s)"), std::string::npos) << run.out;
}
