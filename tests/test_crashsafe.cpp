// Crash-safety contract tests (docs/ROBUSTNESS.md §11): journal framing
// and torn-tail recovery against the committed corpus, checkpoint
// encode/decode bit-exactness and loud rejection of damage, the
// CheckpointSink's deterministic rate limit, the MinObsWin progress
// snapshot's round trip (SolverProgress and ForestState), resume-equals-
// fresh on a real solve, and the pipeline fingerprint's sensitivity
// boundary.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/initializer.hpp"
#include "core/regular_forest.hpp"
#include "core/solver.hpp"
#include "flow/pipeline.hpp"
#include "flow/resume_check.hpp"
#include "gen/random_circuit.hpp"
#include "helpers.hpp"
#include "netlist/cell_library.hpp"
#include "support/atomic_io.hpp"
#include "support/check.hpp"
#include "support/checkpoint.hpp"

namespace serelin {
namespace {

namespace fs = std::filesystem;

class TempDir {
 public:
  TempDir() {
    dir_ = fs::temp_directory_path() /
           ("serelin-crashsafe-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter_++));
    fs::create_directories(dir_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

 private:
  static int counter_;
  fs::path dir_;
};
int TempDir::counter_ = 0;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

// The medium random instance the engine resume tests solve: big enough
// for several commits / bisection steps, small enough for the fast label.
Netlist resume_circuit(std::uint64_t seed) {
  RandomCircuitSpec spec;
  spec.gates = 120;
  spec.dffs = 30;
  spec.inputs = 6;
  spec.outputs = 6;
  spec.mean_fanin = 2.0;
  spec.seed = seed;
  return generate_random_circuit(spec);
}

}  // namespace

// ---------------------------------------------------------------------------
// Journal framing

TEST(CrashSafeJournal, Crc32MatchesTheZlibVectors) {
  // IEEE 802.3 check values — the framing promises standard tooling can
  // cross-check a journal, so pin the polynomial, not just self-agreement.
  EXPECT_EQ(crc32(""), 0u);
  EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
}

TEST(CrashSafeJournal, FrameLayoutIsLengthCrcPayloadNewline) {
  const std::string payload = "{\"k\":1}";
  const std::string frame = frame_journal_record(payload);
  ASSERT_EQ(frame.size(), 18 + payload.size() + 1);
  char head[20];
  std::snprintf(head, sizeof head, "%08zx %08x ", payload.size(),
                crc32(payload));
  EXPECT_EQ(frame.substr(0, 18), head);
  EXPECT_EQ(frame.substr(18, payload.size()), payload);
  EXPECT_EQ(frame.back(), '\n');
}

TEST(CrashSafeJournal, WriterRoundTripsAndAppendContinues) {
  TempDir tmp;
  const std::string path = tmp.path("j.jsonl");
  {
    JournalWriter w(path, JournalWriter::Mode::kTruncate);
    w.append("{\"i\":0}");
    w.append("{\"i\":1}");
    EXPECT_TRUE(w.healthy());
  }
  JournalRecovery rec = read_journal(path);
  EXPECT_FALSE(rec.torn);
  ASSERT_EQ(rec.records.size(), 2u);
  EXPECT_EQ(rec.records[1], "{\"i\":1}");
  EXPECT_EQ(rec.valid_bytes, fs::file_size(path));
  {
    JournalWriter w(path, JournalWriter::Mode::kAppend);
    w.append("{\"i\":2}");
  }
  rec = read_journal(path);
  EXPECT_FALSE(rec.torn);
  ASSERT_EQ(rec.records.size(), 3u);
  EXPECT_EQ(rec.records[2], "{\"i\":2}");
}

TEST(CrashSafeJournal, MissingJournalReadsEmptyNotTorn) {
  TempDir tmp;
  const JournalRecovery rec = read_journal(tmp.path("absent.jsonl"));
  EXPECT_TRUE(rec.records.empty());
  EXPECT_FALSE(rec.torn);
  EXPECT_EQ(rec.valid_bytes, 0u);
}

// Every committed corpus entry recovers at an exactly predicted byte: the
// corpus is generated from frame_journal_record over these payloads
// (tests/corpus/journals/), so the expected recovery point is derivable,
// not a magic number.
TEST(CrashSafeJournal, TornCorpusRecoversAtExactPoints) {
  const std::string p1 = "{\"event\":\"a\",\"i\":1}";
  const std::string p2 = "{\"event\":\"b\",\"i\":2}";
  const std::string p3 = "{\"event\":\"c\",\"i\":3}";
  const std::uint64_t f = frame_journal_record(p1).size();  // all equal
  ASSERT_EQ(frame_journal_record(p2).size(), f);
  struct Case {
    const char* file;
    std::vector<std::string> records;
    bool torn;
    std::uint64_t valid_bytes;
  };
  const Case cases[] = {
      {"clean.journal", {p1, p2, p3}, false, 3 * f},
      {"torn-half-frame.journal", {p1, p2}, true, 2 * f},
      {"torn-header.journal", {p1}, true, f},
      {"bad-crc.journal", {p1}, true, f},  // damage hides the frames behind it
      {"missing-newline.journal", {p1}, true, f},
      {"empty.journal", {}, false, 0},
      {"garbage.journal", {}, true, 0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.file);
    const std::string committed =
        std::string(SERELIN_CORPUS_DIR) + "/journals/" + c.file;
    TempDir tmp;
    const std::string path = tmp.path(c.file);
    atomic_write_file(path, slurp(committed));

    JournalRecovery rec = read_journal(path);
    EXPECT_EQ(rec.records, c.records);
    EXPECT_EQ(rec.torn, c.torn) << rec.detail;
    EXPECT_EQ(rec.valid_bytes, c.valid_bytes);

    rec = recover_journal(path);
    EXPECT_EQ(rec.records, c.records);
    EXPECT_EQ(fs::file_size(path), c.valid_bytes);
    rec = read_journal(path);
    EXPECT_FALSE(rec.torn) << rec.detail;
    EXPECT_EQ(rec.records, c.records);

    // The resume path: a kAppend writer continues after the recovery
    // point and the journal stays intact.
    {
      JournalWriter w(path, JournalWriter::Mode::kAppend);
      w.append("{\"event\":\"resumed\"}");
    }
    rec = read_journal(path);
    EXPECT_FALSE(rec.torn) << rec.detail;
    ASSERT_EQ(rec.records.size(), c.records.size() + 1);
    EXPECT_EQ(rec.records.back(), "{\"event\":\"resumed\"}");
  }
}

// ---------------------------------------------------------------------------
// Checkpoint files

namespace {

CheckpointImage sample_image() {
  CheckpointImage image;
  image.kind = "pipeline";
  image.fingerprint = 0x0123456789abcdefULL;
  image.sections.emplace_back("pipeline", std::string("\x01\x00\x02", 3));
  image.sections.emplace_back("solver",
                              std::string("opaque\0blob \xff bytes", 19));
  return image;
}

}  // namespace

TEST(CrashSafeCheckpoint, EncodeDecodeRoundTripIsBitExact) {
  const CheckpointImage image = sample_image();
  const std::string bytes = encode_checkpoint(image);
  const CheckpointImage back = decode_checkpoint(bytes);
  EXPECT_EQ(back.version, image.version);
  EXPECT_EQ(back.kind, image.kind);
  EXPECT_EQ(back.fingerprint, image.fingerprint);
  EXPECT_EQ(back.sections, image.sections);
  // Bit-stable: re-encoding the decoded image reproduces the exact bytes.
  EXPECT_EQ(encode_checkpoint(back), bytes);
  ASSERT_NE(back.find("solver"), nullptr);
  EXPECT_EQ(*back.find("solver"), image.sections[1].second);
  EXPECT_EQ(back.find("no-such-section"), nullptr);
}

TEST(CrashSafeCheckpoint, EverySingleByteFlipIsRejected) {
  const std::string bytes = encode_checkpoint(sample_image());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string damaged = bytes;
    damaged[i] = static_cast<char>(damaged[i] ^ 0x40);
    EXPECT_THROW(decode_checkpoint(damaged), ParseError)
        << "flip at byte " << i << " was accepted";
  }
  for (std::size_t n = 0; n < bytes.size(); ++n)
    EXPECT_THROW(decode_checkpoint(std::string_view(bytes).substr(0, n)),
                 ParseError)
        << "truncation to " << n << " bytes was accepted";
}

TEST(CrashSafeCheckpoint, SaveLoadAndMissingFile) {
  TempDir tmp;
  const std::string path = tmp.path("ck.bin");
  CheckpointImage loaded;
  EXPECT_FALSE(load_checkpoint(path, loaded));  // missing: fresh run
  save_checkpoint(path, sample_image());
  ASSERT_TRUE(load_checkpoint(path, loaded));
  EXPECT_EQ(loaded.sections, sample_image().sections);
  // No stray temp from the atomic replace.
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  atomic_write_file(path, "damaged beyond the magic");
  EXPECT_THROW(load_checkpoint(path, loaded), ParseError);
}

TEST(CrashSafeCheckpoint, SinkRateLimitIsDeterministic) {
  TempDir tmp;
  CheckpointSink sink(tmp.path("ck.bin"), "test", 7, /*every=*/3);
  int fills = 0;
  const auto fill = [&fills](CheckpointImage& image) {
    image.sections.emplace_back("n", std::to_string(fills));
    ++fills;
  };
  for (int i = 0; i < 7; ++i) sink.offer(fill);
  EXPECT_EQ(fills, 3);  // offers #1, #4, #7: the first, then every 3rd
  sink.force(fill);
  EXPECT_EQ(fills, 4);  // force is unconditional
  EXPECT_TRUE(sink.healthy());
  CheckpointImage image;
  ASSERT_TRUE(load_checkpoint(tmp.path("ck.bin"), image));
  EXPECT_EQ(image.kind, "test");
  EXPECT_EQ(image.fingerprint, 7u);
  ASSERT_NE(image.find("n"), nullptr);
  EXPECT_EQ(*image.find("n"), "3");  // the forced (last) snapshot
}

TEST(CrashSafeCheckpoint, WithSectionPrependsContextAndSharesTheCounter) {
  TempDir tmp;
  CheckpointSink base(tmp.path("ck.bin"), "test", 1, /*every=*/2);
  CheckpointSink staged = base.with_section("pipeline", "stage-blob");
  int fills = 0;
  const auto fill = [&fills](CheckpointImage&) { ++fills; };
  staged.offer(fill);  // offer #1 -> writes
  base.offer(fill);    // offer #2 on the SAME counter -> skipped
  staged.offer(fill);  // offer #3 -> writes
  EXPECT_EQ(fills, 2);
  CheckpointImage image;
  ASSERT_TRUE(load_checkpoint(tmp.path("ck.bin"), image));
  ASSERT_FALSE(image.sections.empty());
  EXPECT_EQ(image.sections.front().first, "pipeline");
  EXPECT_EQ(image.sections.front().second, "stage-blob");
}

TEST(CrashSafeCheckpoint, SinkDegradesToUnhealthyInsteadOfThrowing) {
  TempDir tmp;
  CheckpointSink sink(tmp.path("no-such-dir") + "/ck.bin", "test", 1, 1);
  EXPECT_TRUE(sink.healthy());
  EXPECT_NO_THROW(sink.force([](CheckpointImage&) {}));
  EXPECT_FALSE(sink.healthy());
  EXPECT_NO_THROW(sink.offer([](CheckpointImage&) {}));
}

TEST(CrashSafeCheckpoint, DisarmedCrashPointsOnlyCount) {
  // Tests must never arm the countdown (it SIGKILLs the process); the
  // counting side is the harness's calibration contract.
  TempDir tmp;
  crash_arm(0);
  const std::int64_t before = crash_points_passed();
  atomic_write_file(tmp.path("a.txt"), "x");
  {
    JournalWriter w(tmp.path("j.jsonl"), JournalWriter::Mode::kTruncate);
    w.append("{}");
  }
  EXPECT_GT(crash_points_passed(), before);
  crash_arm(0);  // disarm resets the calibration counter
  EXPECT_EQ(crash_points_passed(), 0);
}

// ---------------------------------------------------------------------------
// Engine progress snapshots

TEST(CrashSafeProgress, SolverProgressRoundTripsBitExactly) {
  SolverProgress p;
  p.r = {0, -2, 3, 1};
  p.commits = 5;
  p.iterations = 123456789012345LL;
  p.objective_gain = -42;
  p.pass_commits = 2;
  p.avoid = {0, 1, 0, 1};
  p.forest.parent = {kNullVertex, 0, 0, kNullVertex};
  p.forest.children = {{1, 2}, {}, {}, {}};
  p.forest.u = {1, 0, 1, 0};
  p.forest.w = {1, 2, 1, 3};
  const std::string bytes = p.encode();
  const SolverProgress q = SolverProgress::decode(bytes);
  EXPECT_EQ(q.r, p.r);
  EXPECT_EQ(q.commits, p.commits);
  EXPECT_EQ(q.iterations, p.iterations);
  EXPECT_EQ(q.objective_gain, p.objective_gain);
  EXPECT_EQ(q.pass_commits, p.pass_commits);
  EXPECT_EQ(q.avoid, p.avoid);
  EXPECT_EQ(q.forest.parent, p.forest.parent);
  EXPECT_EQ(q.forest.children, p.forest.children);
  EXPECT_EQ(q.forest.u, p.forest.u);
  EXPECT_EQ(q.forest.w, p.forest.w);
  EXPECT_EQ(q.encode(), bytes);
  for (std::size_t n = 0; n < bytes.size(); ++n)
    EXPECT_THROW(SolverProgress::decode(std::string_view(bytes).substr(0, n)),
                 ParseError)
        << "truncation to " << n;
  EXPECT_THROW(SolverProgress::decode(bytes + "x"), ParseError);
}

TEST(CrashSafeProgress, ForestStateRestoresBitExactly) {
  const std::vector<std::int64_t> gain = {5, -1, 3, 0, 2};
  const std::vector<char> movable = {1, 1, 1, 0, 1};
  RegularForest forest(gain, movable);
  const ForestState state = forest.state();
  RegularForest restored(gain, movable, state);
  const ForestState back = restored.state();
  EXPECT_EQ(back.parent, state.parent);
  EXPECT_EQ(back.children, state.children);
  EXPECT_EQ(back.u, state.u);
  EXPECT_EQ(back.w, state.w);
  // A structurally damaged snapshot is rejected, not resumed wrong.
  ForestState bad = state;
  bad.parent[0] = 1;  // cycle with 1's parent scan / orphan mismatch
  EXPECT_THROW(RegularForest(gain, movable, bad), Error);
}

// ---------------------------------------------------------------------------
// Resume == fresh

TEST(CrashSafeResume, MinObsWinFromFirstCommitSnapshotMatchesFresh) {
  const Netlist nl = resume_circuit(0x5eed0001ULL);
  CellLibrary lib;
  RetimingGraph g(nl, lib);
  const InitResult init = initialize_retiming(g, {});
  SimConfig cfg;
  cfg.patterns = 256;
  cfg.frames = 5;
  const ObsGains gains = test::gains_for(g, nl, cfg);
  SolverOptions opt;
  opt.timing = init.timing;
  opt.rmin = init.rmin;
  const SolverResult fresh = MinObsWinSolver(g, gains, opt).solve(init.r);
  ASSERT_FALSE(fresh.exited_early);
  ASSERT_GT(fresh.commits, 0);

  // `every` is huge, so only the FIRST offer (the first commit) persists:
  // the checkpoint freezes the solve at its earliest interesting point and
  // resume() has real work left to do.
  TempDir tmp;
  SolverOptions ck = opt;
  ck.checkpoint =
      CheckpointSink(tmp.path("ck.bin"), "test", 1, /*every=*/1 << 30);
  (void)MinObsWinSolver(g, gains, ck).solve(init.r);
  CheckpointImage image;
  ASSERT_TRUE(load_checkpoint(tmp.path("ck.bin"), image));
  ASSERT_NE(image.find("solver"), nullptr);
  const SolverProgress progress = SolverProgress::decode(*image.find("solver"));
  EXPECT_EQ(progress.commits, 1);

  const SolverResult resumed = MinObsWinSolver(g, gains, opt).resume(progress);
  EXPECT_EQ(resumed.r, fresh.r);
  EXPECT_EQ(resumed.commits, fresh.commits);
  EXPECT_EQ(resumed.iterations, fresh.iterations);
  EXPECT_EQ(resumed.objective_gain, fresh.objective_gain);
  EXPECT_EQ(resumed.stop_reason, fresh.stop_reason);
}

// ---------------------------------------------------------------------------
// Pipeline fingerprint and the cross-checker

TEST(CrashSafePipeline, FingerprintCoversResultsNotBudgets) {
  const Netlist nl = test::tiny_ring();
  PipelineOptions po;
  const std::uint64_t base = pipeline_fingerprint(nl, po);
  EXPECT_EQ(pipeline_fingerprint(nl, po), base);  // deterministic

  PipelineOptions changed = po;
  changed.sim.patterns *= 2;
  EXPECT_NE(pipeline_fingerprint(nl, changed), base);
  changed = po;
  changed.period = 123.0;
  EXPECT_NE(pipeline_fingerprint(nl, changed), base);
  changed = po;
  changed.start = PipelineStage::kMinObs;
  EXPECT_NE(pipeline_fingerprint(nl, changed), base);
  EXPECT_NE(pipeline_fingerprint(test::tiny_pipeline(), po), base);

  // Budgets change when snapshots happen, never what a completed run
  // computes — a resumed run may legally carry different budgets.
  changed = po;
  changed.stage_budget_s = 99.0;
  changed.retry_factor = 5.0;
  changed.checkpoint_every = 1;
  changed.journal_path = "elsewhere.jsonl";
  changed.checkpoint_path = "elsewhere.bin";
  EXPECT_EQ(pipeline_fingerprint(nl, changed), base);
}

TEST(CrashSafePipeline, ResumeMatchesFreshPinsEveryContractField) {
  PipelineResult fresh;
  fresh.ok = true;
  fresh.stage = PipelineStage::kMinObsWin;
  fresh.solver.r = {0, 1, -1};
  fresh.solver.objective_gain = 10;
  fresh.timing.period = 4.25;
  std::string detail;
  EXPECT_TRUE(resume_matches_fresh(fresh, fresh, &detail)) << detail;

  PipelineResult drift = fresh;
  drift.solver.r[2] = 0;
  EXPECT_FALSE(resume_matches_fresh(fresh, drift, &detail));
  EXPECT_NE(detail.find("vertex 2"), std::string::npos) << detail;

  drift = fresh;
  drift.stage = PipelineStage::kMinObs;
  EXPECT_FALSE(resume_matches_fresh(fresh, drift, &detail));

  drift = fresh;
  drift.solver.objective_gain = 11;
  EXPECT_FALSE(resume_matches_fresh(fresh, drift, &detail));

  drift = fresh;
  drift.timing.period = std::nextafter(4.25, 5.0);  // one ulp: still caught
  EXPECT_FALSE(resume_matches_fresh(fresh, drift, &detail));

  // Wall-clock artifacts are excluded: attempts differ legitimately.
  drift = fresh;
  drift.attempts.emplace_back();
  drift.journal_path = "other.jsonl";
  EXPECT_TRUE(resume_matches_fresh(fresh, drift, &detail)) << detail;
}

TEST(CrashSafePipeline, InProcessResumeReachesTheIdenticalResult) {
  const Netlist nl = resume_circuit(0x5eed0004ULL);
  CellLibrary lib;
  TempDir tmp;
  PipelineOptions po;
  po.sim.patterns = 128;
  po.sim.frames = 4;
  po.sim.warmup = 8;
  po.journal_path = tmp.path("journal.jsonl");
  po.checkpoint_path = tmp.path("ck.bin");
  po.checkpoint_every = 1;
  const PipelineResult fresh = run_pipeline(nl, lib, po);
  ASSERT_TRUE(fresh.ok);
  ASSERT_TRUE(fs::exists(po.checkpoint_path));

  // Resume against the completed run's last checkpoint: the resumed run
  // re-enters the final stage/attempt and must land on the same result.
  PipelineOptions rp = po;
  rp.resume_path = po.checkpoint_path;
  const PipelineResult resumed = run_pipeline(nl, lib, rp);
  std::string detail;
  EXPECT_TRUE(resume_matches_fresh(fresh, resumed, &detail)) << detail;

  const JournalRecovery rec = read_journal(po.journal_path);
  EXPECT_FALSE(rec.torn) << rec.detail;
  bool saw_resume = false;
  for (const std::string& line : rec.records)
    if (line.find("\"event\":\"resume\"") != std::string::npos)
      saw_resume = true;
  EXPECT_TRUE(saw_resume);

  // A checkpoint from a different circuit is refused, never replayed.
  const Netlist other = resume_circuit(0x5eed0005ULL);
  EXPECT_THROW(run_pipeline(other, lib, rp), Error);
}

}  // namespace serelin
