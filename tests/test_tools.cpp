// Contract tests of the shipped command-line tools, run as subprocesses
// with the flags scripts and CI use: `serelin_cli retime` goes through the
// solver pipeline for every --algorithm and both netlist formats, and
// `bench_report` writes a report the strict protocol parser accepts and
// rejects unknown kernel names.
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

TEST(CliRetime, EveryAlgorithmRunsThePipelineWithJournalAndCheckpoint) {
  for (const std::string circuit : {"rand40.bench", "rand80.blif"}) {
    for (const std::string algorithm : {"minobswin", "minobs", "minarea"}) {
      const std::string stem = temp_path("cli-" + algorithm + "-" + circuit);
      const std::string journal = stem + ".jsonl";
      const std::string checkpoint = stem + ".ckpt";
      fs::remove(checkpoint);
      const std::string out =
          stem + (circuit.ends_with(".blif") ? ".out.blif" : ".out.bench");
      EXPECT_EQ(run(std::string(SERELIN_CLI_BIN) + " retime " +
                    SERELIN_EXAMPLES_DIR + "/" + circuit + " " + out +
                    " --algorithm " + algorithm + " --journal " + journal +
                    " --checkpoint " + checkpoint),
                0)
          << circuit << " --algorithm " << algorithm;
      EXPECT_TRUE(fs::exists(out)) << out;
      EXPECT_TRUE(fs::exists(checkpoint)) << checkpoint;
      const JournalRecovery rec = read_journal(journal);
      ASSERT_FALSE(rec.records.empty()) << journal;
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
  std::ifstream in(path, std::ios::binary);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
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

}  // namespace
}  // namespace serelin
