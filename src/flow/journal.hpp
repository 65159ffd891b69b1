// Run journal: append-only JSONL record of a solver-pipeline run.
//
// Every pipeline stage attempt — budget, outcome, oracle verdict — is
// written as one JSON object per line the moment it happens, so a run that
// is later killed (deadline, crash, operator Ctrl-C) still leaves a
// complete trace of everything it tried. The schema is documented in
// docs/ROBUSTNESS.md ("Run journal").
//
// Since the crash-safety work (docs/ROBUSTNESS.md §11) every record rides
// inside a JournalWriter frame (length + CRC-32 + payload), fsynced as it
// is appended: a SIGKILL mid-append leaves at most one torn trailing
// frame, which recover_journal truncates away, so the surviving journal is
// exactly the prefix of committed events — the property pipeline resume
// replays to find the last completed stage.
//
// Failure policy: failing to *open* the journal is a hard error (the user
// asked for a record we cannot produce); failing to *write* mid-run must
// never take the solve down with it — the journal goes unhealthy, keeps
// swallowing writes, and the caller reports the degradation at the end.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "support/atomic_io.hpp"

namespace serelin {

/// Minimal ordered JSON-object builder for journal lines. Keys are emitted
/// in insertion order; values are escaped per RFC 8259. Non-finite doubles
/// become null (JSON has no inf/nan).
class JsonObject {
 public:
  JsonObject& set(const std::string& key, const std::string& value);
  JsonObject& set(const std::string& key, const char* value);
  JsonObject& set(const std::string& key, double value);
  JsonObject& set(const std::string& key, std::int64_t value);
  JsonObject& set(const std::string& key, int value);
  JsonObject& set(const std::string& key, bool value);

  /// Splices `json` in verbatim as the value — it must already be valid
  /// JSON (e.g. a nested object from metrics_json()). No escaping happens.
  JsonObject& set_json(const std::string& key, const std::string& json);

  /// "{...}" — the serialized object.
  const std::string& str() const;

 private:
  JsonObject& raw(const std::string& key, const std::string& json);

  mutable std::string body_;  // built incrementally; str() closes it
  mutable bool closed_ = false;
};

/// Escapes `s` for inclusion in a JSON string literal (without quotes).
std::string json_escape(const std::string& s);

/// Value of a top-level string field in a JsonObject-written record, or
/// nullopt when absent. Not a general JSON parser: it relies on the
/// journal's own writer emitting `"key":"value"` with JsonObject's
/// escaping, which is all resume replay ever reads back.
std::optional<std::string> json_string_field(const std::string& record,
                                             const std::string& key);

/// Receives every journal record as it is written (before the durable
/// append), so a live consumer — the job server streaming events to a
/// client — sees the run unfold without tailing the framed file. The
/// callback runs on the writing thread and must not throw.
using JournalObserver = std::function<void(const std::string& record)>;

class RunJournal {
 public:
  /// Disabled journal: write() is a no-op, healthy() stays true.
  RunJournal() = default;

  /// Opens (truncates) `path` for writing. Throws serelin::Error when the
  /// file cannot be opened. `mode` kAppend continues a recovered journal
  /// after its last intact record (pipeline resume).
  explicit RunJournal(const std::string& path,
                      JournalWriter::Mode mode = JournalWriter::Mode::kTruncate);

  bool enabled() const { return writer_.enabled(); }

  /// False once any write has failed; subsequent writes are swallowed.
  bool healthy() const { return writer_.healthy(); }

  const std::string& path() const { return writer_.path(); }

  /// Appends one framed JSONL record and fsyncs it (so partial runs
  /// journal, and a crash tears at most the trailing frame). The observer
  /// (when set) sees the record even when no file is attached.
  void write(const JsonObject& obj);

  /// Mirrors every subsequent record to `observer`. Works on a disabled
  /// (fileless) journal too: an observer-only journal streams without
  /// touching disk.
  void set_observer(JournalObserver observer) {
    observer_ = std::move(observer);
  }

 private:
  JournalWriter writer_;
  JournalObserver observer_;
};

}  // namespace serelin
