// Cooperative cancellation for long-running synthesis jobs.
//
// A CancelToken is an immutable value the suite driver
// (src/exp/suite_driver.hpp) builds for each job: an optional wall-clock
// deadline plus a pointer to the process's graceful-shutdown flag.  The
// search loops — simulated annealing, OptimizeSchedule's slot sweep,
// OptimizeResources' hill climbs — poll it between evaluations and unwind
// with CancelledError, so a diverging or pathological job degrades to a
// deterministic `timeout` report row instead of hanging its worker, and a
// SIGINT drains the run within one evaluation per worker.
//
// The poll granularity is one candidate evaluation: a single fixed-point
// run is already bounded by the divergence cap (DESIGN.md §2), so the
// loops cannot stall between two polls.  A poll is one relaxed atomic
// load, plus one steady_clock read when a deadline is armed — negligible
// next to the evaluation it guards.
//
// Cancellation deliberately THROWS instead of returning partial results:
// a partially explored search would depend on where the wall clock cut
// it, while a discarded one yields a row whose content is a pure function
// of the job's identity (DESIGN.md §6).
#pragma once

#include <atomic>
#include <chrono>
#include <optional>
#include <stdexcept>

namespace mcs::util {

enum class CancelReason {
  Deadline,  ///< the job's wall-clock budget is spent
  Shutdown,  ///< process is draining (SIGINT/SIGTERM)
};

class CancelledError : public std::runtime_error {
public:
  explicit CancelledError(CancelReason reason)
      : std::runtime_error(reason == CancelReason::Deadline
                               ? "cancelled: wall-clock deadline exceeded"
                               : "cancelled: shutdown requested"),
        reason_(reason) {}

  [[nodiscard]] CancelReason reason() const noexcept { return reason_; }

private:
  CancelReason reason_;
};

/// A job's cancellation condition: its deadline (if any) has passed, or
/// the stop flag (if any) is up.  Nothing ever cancels a token; it checks
/// both conditions itself whenever it is polled.
class CancelToken {
public:
  using Clock = std::chrono::steady_clock;

  CancelToken(std::optional<Clock::time_point> deadline,
              const std::atomic<bool>* stop) noexcept
      : deadline_(deadline), stop_(stop) {}

  /// The poll the search loops call between evaluations.  The stop flag
  /// wins over an expired deadline: a draining run leaves the job pending.
  void throw_if_cancelled() const {
    if (stop_ != nullptr && stop_->load(std::memory_order_relaxed)) {
      throw CancelledError(CancelReason::Shutdown);
    }
    if (deadline_ && Clock::now() >= *deadline_) {
      throw CancelledError(CancelReason::Deadline);
    }
  }

private:
  std::optional<Clock::time_point> deadline_;
  const std::atomic<bool>* stop_;
};

}  // namespace mcs::util
