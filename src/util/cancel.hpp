// Cooperative cancellation for long-running synthesis jobs.
//
// A CancelToken is a tiny atomic flag the job runtime (src/exp/job_runtime)
// sets from its watchdog thread when a job overruns its wall-clock budget.
// The search loops — simulated annealing, OptimizeSchedule's slot sweep,
// OptimizeResources' hill climbs — poll the token between evaluations and
// unwind with CancelledError, so a diverging or pathological job degrades
// to a deterministic `timeout` report row instead of hanging its worker.
//
// The poll granularity is one candidate evaluation: a single fixed-point
// run is already bounded by the divergence cap (DESIGN.md §2), so the
// loops cannot stall between two polls.  Polling is one relaxed atomic
// load — negligible next to the evaluation it guards.
//
// Cancellation deliberately THROWS instead of returning partial results:
// a partially explored search would depend on where the wall clock cut
// it, while a discarded one yields a row whose content is a pure function
// of the job's identity (DESIGN.md §6).
#pragma once

#include <atomic>
#include <stdexcept>

namespace mcs::util {

enum class CancelReason : int {
  None = 0,
  Deadline = 1,  ///< watchdog: wall-clock budget exceeded
  Shutdown = 2,  ///< process is draining (SIGINT/SIGTERM)
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

/// One-shot cancellation flag: the first cancel() wins.  Safe to cancel
/// from any thread while the owning job polls.
class CancelToken {
public:
  void cancel(CancelReason reason) noexcept {
    int expected = 0;
    reason_.compare_exchange_strong(expected, static_cast<int>(reason),
                                    std::memory_order_relaxed);
  }

  [[nodiscard]] bool cancelled() const noexcept {
    return reason_.load(std::memory_order_relaxed) != 0;
  }

  [[nodiscard]] CancelReason reason() const noexcept {
    return static_cast<CancelReason>(reason_.load(std::memory_order_relaxed));
  }

  /// The poll the search loops call between evaluations.
  void throw_if_cancelled() const {
    const int r = reason_.load(std::memory_order_relaxed);
    if (r != 0) throw CancelledError(static_cast<CancelReason>(r));
  }

private:
  std::atomic<int> reason_{0};
};

}  // namespace mcs::util
