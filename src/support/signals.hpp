// Graceful SIGINT/SIGTERM handling for the tools (docs/ROBUSTNESS.md §11).
//
// Contract: the *first* signal trips a CancelToken — every solver then
// stops at its next feasible state, the pipeline finalizes its journal,
// and the tool exits with the registered "interrupted" code (78) carrying
// a legal best-so-far result.
// A *second* signal means the operator wants out now: the handler restores
// the default disposition and re-raises, so the process dies with the
// conventional signal exit status.
//
// The handler body is async-signal-safe: one relaxed store into the
// token's atomic flag plus one counter increment; no allocation, locks or
// I/O. Only one SignalGuard may be live at a time (tools install exactly
// one at main()).
#pragma once

#include "support/deadline.hpp"

namespace serelin {

class SignalGuard {
 public:
  /// Installs SIGINT/SIGTERM handlers wired to `token`. The guard keeps
  /// the token alive for the handler's benefit.
  explicit SignalGuard(CancelToken token);

  /// Restores the previous handlers.
  ~SignalGuard();

  SignalGuard(const SignalGuard&) = delete;
  SignalGuard& operator=(const SignalGuard&) = delete;

  /// True once at least one SIGINT/SIGTERM arrived.
  bool interrupted() const;

  /// Exit code registered for "interrupted, clean partial result written"
  /// (docs/ROBUSTNESS.md §5).
  static constexpr int kExitInterrupted = 78;

 private:
  CancelToken token_;
};

}  // namespace serelin
