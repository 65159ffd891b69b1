// Contract tests of the shipped command-line tools, run as subprocesses
// with the flags scripts and CI use: `serelin_cli retime` goes through the
// solver pipeline for every --algorithm and both netlist formats and
// writes a trace, metrics file and journal the strict parser accepts,
// `bench_report` writes a report the strict protocol parser accepts and
// rejects unknown kernel names, and `serelin_campaign` runs every property
// campaign clean, replays the committed corpora, and maps failures onto
// its exit codes.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "flow/journal.hpp"
#include "serve/protocol.hpp"
#include "support/atomic_io.hpp"

namespace serelin {
namespace {

namespace fs = std::filesystem;

int run(const std::string& command) {
  const int status = std::system((command + " > /dev/null 2>&1").c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

std::string temp_path(const std::string& name) {
  return (fs::path(::testing::TempDir()) / name).string();
}

/// A fresh, empty temp directory.
std::string temp_dir(const std::string& name) {
  const std::string dir = temp_path(name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

int campaign(const std::string& args) {
  return run(std::string(SERELIN_CAMPAIGN_BIN) + " " + args);
}

TEST(CliRetime, EveryAlgorithmRunsThePipelineWithJournalAndCheckpoint) {
  for (const std::string circuit : {"rand40.bench", "rand80.blif"}) {
    for (const std::string algorithm : {"minobswin", "minobs", "minarea"}) {
      const std::string stem = temp_path("cli-" + algorithm + "-" + circuit);
      const std::string journal = stem + ".jsonl";
      const std::string checkpoint = stem + ".ckpt";
      const std::string trace = stem + ".trace.json";
      const std::string metrics = stem + ".metrics.json";
      for (const std::string& artifact : {checkpoint, trace, metrics})
        fs::remove(artifact);
      const std::string out =
          stem + (circuit.ends_with(".blif") ? ".out.blif" : ".out.bench");
      EXPECT_EQ(run(std::string(SERELIN_CLI_BIN) + " retime " +
                    SERELIN_EXAMPLES_DIR + "/" + circuit + " " + out +
                    " --algorithm " + algorithm + " --journal " + journal +
                    " --checkpoint " + checkpoint + " --trace " + trace +
                    " --metrics " + metrics),
                0)
          << circuit << " --algorithm " << algorithm;
      EXPECT_TRUE(fs::exists(out)) << out;
      EXPECT_TRUE(fs::exists(checkpoint)) << checkpoint;
      // Every JSON artifact the run wrote is valid under the strict parser.
      for (const std::string& artifact : {trace, metrics}) {
        std::string text = slurp(artifact);
        ASSERT_TRUE(text.ends_with('\n')) << artifact;
        text.pop_back();
        const ParseOutcome parsed = parse_object(text);
        EXPECT_TRUE(parsed.ok) << artifact << ": " << parsed.error;
      }
      const JournalRecovery rec = read_journal(journal);
      ASSERT_FALSE(rec.records.empty()) << journal;
      for (const std::string& record : rec.records) {
        const ParseOutcome parsed = parse_object(record);
        EXPECT_TRUE(parsed.ok) << record << ": " << parsed.error;
      }
      const std::string& last = rec.records.back();
      EXPECT_EQ(json_string_field(last, "event"), "result") << last;
      EXPECT_EQ(json_string_field(last, "stage"), algorithm) << last;
    }
  }
}

TEST(BenchReport, WritesAReportTheStrictParserAccepts) {
  const std::string path = temp_path("bench_report.json");
  fs::remove(path);
  ASSERT_EQ(run(std::string(SERELIN_BENCH_REPORT_BIN) + " --out " + path +
                " --gates 400 --dffs 100 --threads 1,2 --repeat 1"
                " --kernels obs_signature,ser_sweep"),
            0);
  std::string text = slurp(path);
  ASSERT_FALSE(text.empty());
  ASSERT_EQ(text.back(), '\n');
  text.pop_back();
  const ParseOutcome parsed = parse_object(text);
  ASSERT_TRUE(parsed.ok) << parsed.error;
  EXPECT_TRUE(parsed.request.get_number("hardware_threads").has_value());
  // Nested objects are skipped structurally by the parser, so the keys
  // bench_gate.py reads are checked by name.
  for (const char* key :
       {"\"circuit\":{", "\"kernels\":[", "\"kernel\":\"obs_signature\"",
        "\"kernel\":\"ser_sweep\"", "\"bit_identical_across_threads\":true",
        "\"counters_identical_across_threads\":true", "\"counters\":{",
        "\"results\":[{\"threads\":1,", "{\"threads\":2,"})
    EXPECT_NE(text.find(key), std::string::npos) << key;
}

TEST(BenchReport, RejectsUnknownKernelNames) {
  const std::string path = temp_path("bench_report_unknown.json");
  for (const std::string kernels : {"wd_query", "obs_signature,nope"}) {
    fs::remove(path);
    EXPECT_EQ(run(std::string(SERELIN_BENCH_REPORT_BIN) + " --out " + path +
                  " --gates 400 --dffs 100 --threads 1 --repeat 1"
                  " --kernels " + kernels),
              64)
        << kernels;
    EXPECT_FALSE(fs::exists(path)) << kernels;
  }
}

TEST(Campaign, SelfCheckPasses) {
  EXPECT_EQ(campaign("self-check --out " + temp_dir("campaign-self-check")),
            0);
}

TEST(Campaign, FaultsRunsCleanAndLeavesNoPendingInput) {
  const std::string out = temp_dir("campaign-faults");
  ASSERT_EQ(campaign("faults --iters 60 --out " + out), 0);
  for (const fs::directory_entry& e : fs::directory_iterator(out))
    EXPECT_FALSE(e.path().filename().string().starts_with("pending-"))
        << e.path();
}

TEST(Campaign, SolversRunsClean) {
  EXPECT_EQ(
      campaign("solvers --iters 40 --out " + temp_dir("campaign-solvers")), 0);
}

TEST(Campaign, CrashResumesEveryKillBitIdentically) {
  EXPECT_EQ(campaign("crash --iters 1 --kills 5 --out " +
                     temp_dir("campaign-crash")),
            0);
}

TEST(Campaign, ReplaysTheCommittedCorpora) {
  EXPECT_EQ(campaign(std::string("replay ") + SERELIN_CORPUS_DIR + "/found"),
            0);
  EXPECT_EQ(campaign(std::string("replay ") + SERELIN_CORPUS_DIR), 0);
}

TEST(Campaign, ReplayFailsAnEntryThatContradictsItsSidecar) {
  const std::string dir = temp_dir("campaign-replay");
  const std::string name = "div-e054f92bf5760722.bench";
  const fs::path found = fs::path(SERELIN_CORPUS_DIR) / "found";
  fs::copy_file(found / name, fs::path(dir) / name);
  std::string sidecar = slurp((found / (name + ".repro")).string());
  const std::string divergent = "expect: divergent\n";
  const std::size_t at = sidecar.find(divergent);
  ASSERT_NE(at, std::string::npos) << sidecar;
  sidecar.replace(at, divergent.size(), "expect: clean\n");
  atomic_write_file((fs::path(dir) / (name + ".repro")).string(), sidecar);
  EXPECT_EQ(campaign("replay " + dir), 77);
}

TEST(Campaign, UsageErrorsExit64) {
  for (const std::string args :
       {"bogus", "solvers --kills 3", "faults --journal x", "replay"})
    EXPECT_EQ(campaign(args), 64) << args;
}

TEST(Campaign, UncreatableOutDirectoryExits70) {
  for (const std::string command : {"faults", "solvers", "crash", "self-check"})
    EXPECT_EQ(campaign(command + " --out /proc/nope/x"), 70) << command;
}

}  // namespace
}  // namespace serelin
