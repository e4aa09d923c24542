// Wall-clock deadline for the whole partitioning pipeline, threaded from
// PartitionerOptions through SearchBudget into every milp::Solver call: the
// remaining budget becomes each solve's time_limit_sec, so an expired
// deadline unwinds the sweep from inside a solve instead of waiting for the
// next between-probe poll. A DeadlineWatchdog force-cancels (via CancelToken)
// any session that misses the deadline by a grace margin.
#pragma once

#include <chrono>
#include <condition_variable>
#include <limits>
#include <mutex>
#include <thread>

#include "milp/types.hpp"

namespace sparcs::core {

/// A monotonic-clock deadline. Default-constructed deadlines never expire
/// (and report an infinite remaining budget), so existing unconstrained runs
/// behave bit-identically.
class Deadline {
 public:
  Deadline() = default;

  /// A deadline `seconds` of wall time from now (monotonic clock).
  [[nodiscard]] static Deadline after_seconds(double seconds) {
    Deadline d;
    d.valid_ = true;
    d.horizon_sec_ = seconds;
    d.at_ = clock::now() + std::chrono::duration_cast<clock::duration>(
                               std::chrono::duration<double>(seconds));
    return d;
  }

  /// True when this deadline can expire.
  [[nodiscard]] bool valid() const { return valid_; }

  /// Wall time until expiry, in seconds (negative once expired; +inf when
  /// the deadline is inert).
  [[nodiscard]] double remaining_sec() const {
    if (!valid_) return std::numeric_limits<double>::infinity();
    return std::chrono::duration<double>(at_ - clock::now()).count();
  }

  [[nodiscard]] bool expired() const { return valid_ && remaining_sec() <= 0.0; }

  /// The total budget this deadline was created with (+inf when inert);
  /// used to size the watchdog's grace margin.
  [[nodiscard]] double horizon_sec() const { return horizon_sec_; }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point at_{};
  double horizon_sec_ = std::numeric_limits<double>::infinity();
  bool valid_ = false;
};

/// Background thread that requests cancellation through `token` when the
/// deadline is missed by `grace_sec` — the backstop for a solve stuck past
/// its clamped time limit (numerical stall, wedged search). Destruction stops
/// the thread without firing. No thread is spawned for an inert deadline.
class DeadlineWatchdog {
 public:
  DeadlineWatchdog(const Deadline& deadline, double grace_sec,
                   milp::CancelToken token);
  DeadlineWatchdog(const DeadlineWatchdog&) = delete;
  DeadlineWatchdog& operator=(const DeadlineWatchdog&) = delete;
  ~DeadlineWatchdog();

  /// True when the watchdog timed out and force-cancelled the pipeline.
  [[nodiscard]] bool fired() const;

  /// Default grace margin for a deadline: 10% of the horizon, floored so
  /// very tight deadlines still get a scheduling-jitter allowance.
  [[nodiscard]] static double default_grace_sec(const Deadline& deadline);

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool fired_ = false;
  std::thread thread_;
};

}  // namespace sparcs::core
