// Durable write primitives: the crash-safety substrate (docs/ROBUSTNESS.md
// §11).
//
// Two disciplines cover every artifact serelin produces:
//
//  * Whole-file replace — atomic_write_file writes `path + ".tmp"` in the
//    destination directory, fsyncs it, and renames it over `path`. A
//    reader therefore sees either the previous complete file or the new
//    complete file, never a torn mixture; a crash mid-write leaves only
//    the deterministic `.tmp` sibling, which the next writer overwrites
//    and recovery sweeps remove.
//  * Append-only journal — JournalWriter frames every record as
//    `LLLLLLLL CCCCCCCC payload\n` (8 hex digits of payload length, 8 hex
//    digits of CRC-32, one space each) and fsyncs per record. A torn tail
//    (partial frame, length/CRC mismatch, missing newline) is detected by
//    read_journal and truncated back to the last intact record by
//    recover_journal, so a resumed run appends after the recovery point.
//
// Both paths carry named crash points for the crash campaign of
// tools/serelin_campaign: an armed countdown (crash_arm) SIGKILLs the
// process at the N-th crash point, including *between* the two halves of
// a journal frame write — the only way to manufacture genuinely torn
// records under test.
//
// Single-writer contract: one process writes a given artifact path at a
// time (the tools' scratch directories are per-run). The primitives do
// not lock files.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace serelin {

/// CRC-32 (IEEE 802.3, reflected, init/final 0xFFFFFFFF) — matches zlib's
/// crc32(), so journal frames can be cross-checked by standard tooling.
std::uint32_t crc32(std::string_view data);

/// Arms the crash-injection countdown: the process raises SIGKILL on
/// itself when the `countdown`-th crash point is reached. Non-positive
/// disarms. Test-only (`serelin_campaign crash`); never armed in
/// production.
void crash_arm(std::int64_t countdown);

/// Crash points traversed since the last crash_arm (armed or not) — the
/// calibration count the harness samples kill indices from.
std::int64_t crash_points_passed();

namespace detail {
/// One named crash-injection site; cheap (one relaxed load) when disarmed.
void crash_point(const char* site);
}  // namespace detail

/// Atomically replaces `path` with `content` (temp + fsync + rename).
/// Returns false on any failure, leaving the previous `path` intact;
/// never throws. `error`, when non-null, receives a description.
bool try_atomic_write_file(const std::string& path, std::string_view content,
                           std::string* error = nullptr) noexcept;

/// Throwing variant of try_atomic_write_file (serelin::Error).
void atomic_write_file(const std::string& path, std::string_view content);

/// Removes a stale `path + ".tmp"` left by a crash mid-replace (no-op when
/// absent). Recovery paths call this before trusting a directory clean.
void remove_stale_temp(const std::string& path);

/// Append-only framed journal writer over a POSIX fd, fsynced per record.
///
/// Failure policy mirrors RunJournal: failing to *open* throws (the caller
/// asked for a record we cannot produce); failing to *write* mid-run
/// degrades — healthy() goes false and later appends are swallowed, never
/// taking the run down.
class JournalWriter {
 public:
  enum class Mode : std::uint8_t {
    kTruncate,  ///< start a fresh journal
    kAppend,    ///< continue after recover_journal (resume)
  };

  /// Disabled writer: append() is a no-op, healthy() stays true.
  JournalWriter() = default;

  /// Opens `path` for writing. Throws serelin::Error on failure.
  JournalWriter(const std::string& path, Mode mode);
  ~JournalWriter();

  JournalWriter(JournalWriter&& other) noexcept;
  JournalWriter& operator=(JournalWriter&& other) noexcept;
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  bool enabled() const { return fd_ >= 0; }
  bool healthy() const { return healthy_; }
  const std::string& path() const { return path_; }

  /// Frames, writes and fsyncs one record. `payload` must not contain
  /// '\n' (JSONL payloads never do; asserted).
  void append(std::string_view payload);

 private:
  void close_fd() noexcept;

  std::string path_;
  int fd_ = -1;
  bool healthy_ = true;
};

/// What a journal read found: every intact record, where the intact prefix
/// ends, and why parsing stopped (when it did).
struct JournalRecovery {
  std::vector<std::string> records;  ///< payloads of intact records, in order
  std::uint64_t valid_bytes = 0;     ///< byte length of the intact prefix
  bool torn = false;   ///< trailing bytes past valid_bytes were damaged
  std::string detail;  ///< human-readable reason parsing stopped
};

/// Parses a framed journal, stopping at the first damaged frame. A missing
/// file yields an empty recovery (not an error); everything after the
/// first damaged byte is reported torn, conservatively — a mid-file flip
/// invalidates the records behind it too, since appends are strictly
/// ordered.
JournalRecovery read_journal(const std::string& path);

/// read_journal, then truncates the file to `valid_bytes` when torn (and
/// removes a stale rename temp), so a JournalWriter in kAppend mode
/// continues from the last intact record.
JournalRecovery recover_journal(const std::string& path);

/// Frames one payload exactly as JournalWriter::append writes it — shared
/// with tests and the torn-journal corpus generator.
std::string frame_journal_record(std::string_view payload);

}  // namespace serelin
