// Deadline and cancellation: cooperative time-bounding for the solver and
// kernel loops, so one oversized or hostile input cannot wedge a worker.
//
// The contract (docs/ROBUSTNESS.md):
//
//  * A Deadline is a cheap value type combining an optional wall-clock
//    expiry with an optional CancelToken. Default-constructed deadlines
//    never expire, so existing call sites pay nothing.
//  * Solvers (MinObsWinSolver, ClosureSolver, MinPeriodRetimer,
//    wd_min_period) poll the deadline at points where their current state
//    is feasible; on expiry they stop and return a *Partial* result — the
//    best feasible answer found so far plus a structured StopReason —
//    instead of throwing.
//  * Kernels whose output is all-or-nothing (the W/D matrices, the
//    observability runs) throw CancelledError on expiry; the caller that
//    owns a partial-capable result catches it at its boundary.
//  * Inside parallel regions every lane polls independently
//    (parallel_for's deadline overload); the first expiry aborts the
//    region via the pool's exception channel.
//
// Polling cost: Deadline::expired() is one steady_clock read plus one
// relaxed atomic load. Tight inner loops use DeadlinePoller, which
// decimates real checks to every `stride` polls.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "support/check.hpp"

namespace serelin {

/// Why a run stopped before completing.
enum class StopReason : std::uint8_t {
  kNone = 0,   ///< ran to completion
  kDeadline,   ///< wall-clock deadline expired
  kCancelled,  ///< CancelToken fired
};

const char* stop_reason_name(StopReason r);

/// Shared cancellation flag. Copies observe the same flag; cancel() is
/// safe from any thread (e.g. a signal handler thread or an RPC layer).
class CancelToken {
 public:
  CancelToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void cancel() const noexcept { flag_->store(true, std::memory_order_relaxed); }
  bool cancelled() const noexcept {
    return flag_->load(std::memory_order_relaxed);
  }

  /// The raw flag, for async-signal-safe cancellation from a signal
  /// handler (support/signals.cpp) — a handler cannot call a member
  /// function on a shared_ptr-backed object but may store into a
  /// pre-published atomic. The token must outlive every use of it.
  std::atomic<bool>* flag() const noexcept { return flag_.get(); }

 private:
  friend class Deadline;
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Thrown by all-or-nothing kernels when their deadline expires; carries
/// the structured reason so tool boundaries can map it to an exit code.
class CancelledError : public Error {
 public:
  CancelledError(StopReason reason, const std::string& what)
      : Error(what), reason_(reason) {}

  StopReason reason() const { return reason_; }

 private:
  StopReason reason_;
};

class Deadline {
 public:
  using Clock = std::chrono::steady_clock;

  /// Never expires (and is not cancellable): the default everywhere.
  Deadline() = default;

  static Deadline never() { return {}; }

  /// Expires `seconds` from now. Non-positive values are already expired.
  static Deadline after(double seconds);

  /// Expires when `token` is cancelled (no time limit).
  static Deadline with_token(CancelToken token);

  /// Attaches a cancellation token to this deadline (kept alongside any
  /// time limit; whichever fires first stops the run).
  Deadline& attach(CancelToken token);

  /// True when neither a time limit nor a token is set.
  bool unlimited() const { return !timed_ && !flag_; }

  /// kNone while running; the reason once expired/cancelled.
  StopReason status() const;

  bool expired() const { return status() != StopReason::kNone; }

  /// Seconds left; +infinity when no time limit is set, 0 when expired.
  double remaining_seconds() const;

  /// A sub-deadline: expires `seconds` from now but never later than this
  /// deadline, and shares its cancellation token. Non-finite `seconds`
  /// means "no extra limit" (the slice is just this deadline). Used to
  /// give pipeline stages their own slice of an overall budget.
  Deadline slice(double seconds) const;

  /// Throws CancelledError("<where>: ...") when expired.
  void check(const char* where) const;

 private:
  bool timed_ = false;
  Clock::time_point at_{};
  std::shared_ptr<std::atomic<bool>> flag_;  ///< null = no token
};

/// Strided poller for tight loops: real deadline checks happen once every
/// `stride` calls, so per-iteration cost is one branch and an increment.
class DeadlinePoller {
 public:
  explicit DeadlinePoller(const Deadline& deadline,
                          std::uint32_t stride = 256)
      : deadline_(&deadline),
        stride_(deadline.unlimited() ? 0 : (stride == 0 ? 1 : stride)) {}

  /// True once the deadline has expired (checked every `stride` calls;
  /// stays true afterwards).
  bool expired() {
    if (stride_ == 0 || (!hit_ && ++count_ % stride_ != 0)) return hit_;
    hit_ = hit_ || deadline_->expired();
    return hit_;
  }

  /// Throws CancelledError on (strided) expiry.
  void check(const char* where) {
    if (expired()) deadline_->check(where);
  }

 private:
  const Deadline* deadline_;
  std::uint32_t stride_;
  std::uint32_t count_ = 0;
  bool hit_ = false;
};

}  // namespace serelin
