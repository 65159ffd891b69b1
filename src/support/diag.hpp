// Diagnostics engine: accumulate-don't-abort error reporting for the
// front end (parsers, builder, lint) and any other layer that wants to
// report several problems per run instead of throwing on the first one.
//
// A Diagnostic is one structured finding: severity, a stable machine code
// (diag_code_name gives the spelled-out form tools and tests match on),
// an optional file/line/column anchor and a human message. Callers thread
// a DiagnosticSink through the code that can fail; the existing Error
// hierarchy in support/check.hpp stays the hard boundary — strict callers
// convert an error-bearing sink into a single DiagnosticError (a
// ParseError subclass) carrying the full list via throw_if_errors().
//
// See docs/ROBUSTNESS.md for the complete failure taxonomy.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "support/check.hpp"

namespace serelin {

enum class Severity : std::uint8_t {
  kNote,     ///< context attached to a preceding warning/error
  kWarning,  ///< suspicious but recoverable; repair may apply
  kError,    ///< the input is wrong; recovery substitutes a best effort
};

const char* severity_name(Severity s);

/// Stable machine-readable diagnostic codes. The spelled-out names
/// (diag_code_name) are part of the tool contract: tests and orchestration
/// scripts match on them, so existing codes must not be renamed.
enum class DiagCode : std::uint16_t {
  // -- I/O ----------------------------------------------------------------
  kIoNotFound,     ///< path does not exist
  kIoUnreadable,   ///< path exists but cannot be opened for reading
  kIoStreamError,  ///< read failed mid-stream (in.bad() after the loop)
  // -- lexical ------------------------------------------------------------
  kBadByte,  ///< non-ASCII / control bytes where text was expected
  // -- .bench -------------------------------------------------------------
  kBenchSyntax,            ///< line does not match the .bench grammar
  kBenchUnknownDirective,  ///< directive other than INPUT/OUTPUT
  kBenchUnknownGate,       ///< unrecognized gate keyword
  kBenchArity,             ///< wrong argument count for the construct
  // -- BLIF ---------------------------------------------------------------
  kBlifSyntax,       ///< malformed .latch / .names / cover row
  kBlifUnsupported,  ///< construct outside the supported subset
  kBlifCover,        ///< cover is not a recognized gate function
  kBlifMissingEnd,   ///< file ended without .end
  // -- structure (recovering NetlistBuilder) ------------------------------
  kNetMultiplyDriven,  ///< signal defined more than once (first wins)
  kNetUndefined,       ///< referenced signal never defined (input synthesized)
  kNetDffMissingDriver,  ///< flip-flop D references an undefined signal
  kNetCombCycle,       ///< combinational cycle (broken at one member)
  kNetBadArity,        ///< malformed declaration (arity / empty name)
  // -- lint (netlist/validate) --------------------------------------------
  kLintDanglingNet,   ///< non-output node that nothing consumes
  kLintUnreferenced,  ///< gate outside every output/state cone
  kLintUnusedInput,   ///< primary input that nothing consumes
  kLintNoOutputs,     ///< circuit has no primary outputs
  // -- result verification (check/oracle) ---------------------------------
  kOracleLegality,   ///< retiming violates Eq. 1 (w_r < 0 / boundary moved)
  kOraclePeriod,     ///< a combinational path exceeds Φ − Ts
  kOracleElw,        ///< a register's ELW breaks the R_min constraint
  kOracleObjective,  ///< reported objective/SER disagrees with recomputation
};

/// Kebab-case name of `code`, e.g. "bench-syntax". Stable across releases.
const char* diag_code_name(DiagCode code);

/// One structured finding.
struct Diagnostic {
  Severity severity = Severity::kError;
  DiagCode code = DiagCode::kBenchSyntax;
  std::string file;  ///< origin file; empty for in-memory streams
  int line = 0;      ///< 1-based; 0 = not line-anchored
  int col = 0;       ///< 1-based; 0 = not column-anchored
  std::string message;

  /// "file:line: error[bench-syntax]: message" (parts omitted when unset).
  std::string render() const;
};

/// Accumulates diagnostics. Not thread-safe: one sink per parse/lint run.
/// A cap bounds memory on adversarial inputs; findings past the cap are
/// counted but not stored (summary() reports the overflow).
class DiagnosticSink {
 public:
  explicit DiagnosticSink(std::size_t max_stored = 1000)
      : max_stored_(max_stored) {}

  void report(Diagnostic d);

  /// Convenience: report with an anchor in `file_`/line.
  void error(DiagCode code, int line, std::string message);
  void warning(DiagCode code, int line, std::string message);
  void note(DiagCode code, int line, std::string message);

  /// File name stamped on subsequently reported diagnostics.
  void set_file(std::string file) { file_ = std::move(file); }
  const std::string& file() const { return file_; }

  const std::vector<Diagnostic>& diagnostics() const { return diags_; }
  std::size_t error_count() const { return errors_; }
  std::size_t warning_count() const { return warnings_; }
  bool has_errors() const { return errors_ > 0; }
  bool empty() const { return diags_.empty() && errors_ == 0; }

  /// True if some stored diagnostic carries `code`.
  bool has(DiagCode code) const;
  /// Number of stored diagnostics carrying `code`.
  std::size_t count(DiagCode code) const;

  /// "3 errors, 1 warning" plus an overflow note when the cap was hit.
  std::string summary() const;

  /// Strict boundary: throws DiagnosticError carrying every stored
  /// diagnostic when the sink holds errors; otherwise does nothing.
  /// `context` prefixes the exception message (e.g. the file name).
  void throw_if_errors(const std::string& context) const;

  /// Appends every stored diagnostic of `other` (and its counters) to this
  /// sink, in `other`'s order. Findings `other` dropped at its cap stay
  /// counted-but-dropped here too.
  void absorb(const DiagnosticSink& other);

 private:
  void bump(Severity s);

  std::string file_;
  std::vector<Diagnostic> diags_;
  std::size_t max_stored_;
  std::size_t dropped_ = 0;
  std::size_t errors_ = 0;
  std::size_t warnings_ = 0;
};

/// The single exception a strict parse raises after the whole input was
/// consumed: a ParseError whose what() renders every collected diagnostic
/// and which carries the structured list for programmatic consumers.
class DiagnosticError : public ParseError {
 public:
  DiagnosticError(const std::string& context, std::vector<Diagnostic> diags);

  const std::vector<Diagnostic>& diagnostics() const { return diags_; }

 private:
  static std::string render_all(const std::string& context,
                                const std::vector<Diagnostic>& diags);

  std::vector<Diagnostic> diags_;
};

}  // namespace serelin
