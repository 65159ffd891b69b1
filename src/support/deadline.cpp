#include "support/deadline.hpp"

#include <cmath>
#include <limits>

namespace serelin {

const char* stop_reason_name(StopReason r) {
  switch (r) {
    case StopReason::kNone:
      return "none";
    case StopReason::kDeadline:
      return "deadline";
    case StopReason::kCancelled:
      return "cancelled";
  }
  return "none";
}

namespace {

/// `seconds` from now, saturating at the clock's last tick: a budget
/// longer than the clock can represent never expires, where the plain
/// cast to the clock's integer ticks would overflow into the past.
/// Non-positive (and NaN) budgets are already expired.
Deadline::Clock::time_point expiry_after(double seconds) {
  using Clock = Deadline::Clock;
  const Clock::time_point now = Clock::now();
  const std::chrono::duration<double, Clock::period> budget =
      std::chrono::duration<double>(seconds > 0 ? seconds : 0);
  const Clock::duration room = Clock::time_point::max() - now;
  if (budget.count() >= static_cast<double>(room.count()))
    return Clock::time_point::max();
  return now + std::chrono::duration_cast<Clock::duration>(budget);
}

}  // namespace

Deadline Deadline::after(double seconds) {
  Deadline d;
  d.timed_ = true;
  d.at_ = expiry_after(seconds);
  return d;
}

Deadline Deadline::with_token(CancelToken token) {
  Deadline d;
  d.flag_ = std::move(token.flag_);
  return d;
}

Deadline& Deadline::attach(CancelToken token) {
  flag_ = std::move(token.flag_);
  return *this;
}

StopReason Deadline::status() const {
  if (flag_ && flag_->load(std::memory_order_relaxed))
    return StopReason::kCancelled;
  if (timed_ && Clock::now() >= at_) return StopReason::kDeadline;
  return StopReason::kNone;
}

double Deadline::remaining_seconds() const {
  if (flag_ && flag_->load(std::memory_order_relaxed)) return 0.0;
  if (!timed_) return std::numeric_limits<double>::infinity();
  const double left =
      std::chrono::duration<double>(at_ - Clock::now()).count();
  return left > 0 ? left : 0.0;
}

Deadline Deadline::slice(double seconds) const {
  Deadline d = *this;  // keeps the token and any existing expiry
  if (std::isfinite(seconds)) {
    const Clock::time_point at = expiry_after(seconds);
    if (!d.timed_ || at < d.at_) d.at_ = at;
    d.timed_ = true;
  }
  return d;
}

void Deadline::check(const char* where) const {
  const StopReason r = status();
  if (r == StopReason::kNone) return;
  throw CancelledError(
      r, std::string(where) + ": stopped (" + stop_reason_name(r) + ")");
}

}  // namespace serelin
