#include "support/diag.hpp"

#include <algorithm>

namespace serelin {

const char* severity_name(Severity s) {
  switch (s) {
    case Severity::kNote:
      return "note";
    case Severity::kWarning:
      return "warning";
    case Severity::kError:
      return "error";
  }
  return "error";
}

const char* diag_code_name(DiagCode code) {
  switch (code) {
    case DiagCode::kIoNotFound:
      return "io-not-found";
    case DiagCode::kIoUnreadable:
      return "io-unreadable";
    case DiagCode::kIoStreamError:
      return "io-stream-error";
    case DiagCode::kBadByte:
      return "bad-byte";
    case DiagCode::kBenchSyntax:
      return "bench-syntax";
    case DiagCode::kBenchUnknownDirective:
      return "bench-unknown-directive";
    case DiagCode::kBenchUnknownGate:
      return "bench-unknown-gate";
    case DiagCode::kBenchArity:
      return "bench-arity";
    case DiagCode::kBlifSyntax:
      return "blif-syntax";
    case DiagCode::kBlifUnsupported:
      return "blif-unsupported";
    case DiagCode::kBlifCover:
      return "blif-cover";
    case DiagCode::kBlifMissingEnd:
      return "blif-missing-end";
    case DiagCode::kNetMultiplyDriven:
      return "net-multiply-driven";
    case DiagCode::kNetUndefined:
      return "net-undefined";
    case DiagCode::kNetDffMissingDriver:
      return "net-dff-missing-driver";
    case DiagCode::kNetCombCycle:
      return "net-comb-cycle";
    case DiagCode::kNetBadArity:
      return "net-bad-arity";
    case DiagCode::kLintDanglingNet:
      return "lint-dangling-net";
    case DiagCode::kLintUnreferenced:
      return "lint-unreferenced";
    case DiagCode::kLintUnusedInput:
      return "lint-unused-input";
    case DiagCode::kLintNoOutputs:
      return "lint-no-outputs";
    case DiagCode::kOracleLegality:
      return "oracle-legality";
    case DiagCode::kOraclePeriod:
      return "oracle-period";
    case DiagCode::kOracleElw:
      return "oracle-elw";
    case DiagCode::kOracleObjective:
      return "oracle-objective";
  }
  return "unknown";
}

std::string Diagnostic::render() const {
  std::string out;
  if (!file.empty()) {
    out += file;
    out += ':';
  }
  if (line > 0) {
    out += std::to_string(line);
    if (col > 0) {
      out += ':';
      out += std::to_string(col);
    }
    out += ':';
  }
  if (!out.empty()) out += ' ';
  out += severity_name(severity);
  out += '[';
  out += diag_code_name(code);
  out += "]: ";
  out += message;
  return out;
}

void DiagnosticSink::bump(Severity s) {
  if (s == Severity::kError) ++errors_;
  if (s == Severity::kWarning) ++warnings_;
}

void DiagnosticSink::report(Diagnostic d) {
  bump(d.severity);
  if (diags_.size() >= max_stored_) {
    ++dropped_;
    return;
  }
  if (d.file.empty()) d.file = file_;
  diags_.push_back(std::move(d));
}

void DiagnosticSink::error(DiagCode code, int line, std::string message) {
  report({Severity::kError, code, file_, line, 0, std::move(message)});
}

void DiagnosticSink::warning(DiagCode code, int line, std::string message) {
  report({Severity::kWarning, code, file_, line, 0, std::move(message)});
}

void DiagnosticSink::note(DiagCode code, int line, std::string message) {
  report({Severity::kNote, code, file_, line, 0, std::move(message)});
}

bool DiagnosticSink::has(DiagCode code) const { return count(code) > 0; }

std::size_t DiagnosticSink::count(DiagCode code) const {
  return static_cast<std::size_t>(
      std::count_if(diags_.begin(), diags_.end(),
                    [code](const Diagnostic& d) { return d.code == code; }));
}

std::string DiagnosticSink::summary() const {
  std::string out = std::to_string(errors_) +
                    (errors_ == 1 ? " error, " : " errors, ") +
                    std::to_string(warnings_) +
                    (warnings_ == 1 ? " warning" : " warnings");
  if (dropped_ > 0)
    out += " (" + std::to_string(dropped_) + " further findings not stored)";
  return out;
}

void DiagnosticSink::throw_if_errors(const std::string& context) const {
  if (!has_errors()) return;
  throw DiagnosticError(context, diags_);
}

void DiagnosticSink::absorb(const DiagnosticSink& other) {
  for (const Diagnostic& d : other.diags_) {
    bump(d.severity);
    if (diags_.size() >= max_stored_)
      ++dropped_;
    else
      diags_.push_back(d);
  }
  // Findings the source itself dropped: counters were bumped there, so
  // re-bump here without storage.
  dropped_ += other.dropped_;
  std::size_t stored_errors = 0, stored_warnings = 0;
  for (const Diagnostic& d : other.diags_) {
    if (d.severity == Severity::kError) ++stored_errors;
    if (d.severity == Severity::kWarning) ++stored_warnings;
  }
  errors_ += other.errors_ - stored_errors;
  warnings_ += other.warnings_ - stored_warnings;
}

std::string DiagnosticError::render_all(const std::string& context,
                                        const std::vector<Diagnostic>& diags) {
  // Render at most a screenful; the structured list stays complete.
  constexpr std::size_t kMaxRendered = 20;
  std::size_t errors = 0;
  for (const Diagnostic& d : diags)
    if (d.severity == Severity::kError) ++errors;
  std::string out = context.empty() ? std::string() : context + ": ";
  out += std::to_string(errors) + (errors == 1 ? " error" : " errors");
  const std::size_t n = std::min(diags.size(), kMaxRendered);
  for (std::size_t i = 0; i < n; ++i) {
    out += '\n';
    out += "  ";
    out += diags[i].render();
  }
  if (diags.size() > n)
    out += "\n  ... and " + std::to_string(diags.size() - n) + " more";
  return out;
}

DiagnosticError::DiagnosticError(const std::string& context,
                                 std::vector<Diagnostic> diags)
    : ParseError(render_all(context, diags)), diags_(std::move(diags)) {}

}  // namespace serelin
