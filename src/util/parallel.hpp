// Fork-join loop for the experiment harnesses.
//
// The suite driver (src/exp/suite_driver.hpp) shards independent
// synthesis jobs across cores with parallel_for(workers, count, body):
// min(workers, count) threads claim indices from an atomic cursor, run
// body(0..count-1) exactly once each — even when some invocations throw —
// and are joined before the call returns.  If any invocations threw, the
// exception from the LOWEST index is rethrown (not the temporally first),
// so concurrent failures surface deterministically regardless of thread
// scheduling.  With one worker the loop runs inline on the caller.
//
// Determinism contract: the loop makes NO ordering promises — indices run
// in whatever order the threads claim them.  Callers that need
// reproducible output must make every index independent (own RNG stream,
// own mutable state) and write into a preassigned slot, the way
// exp::run_campaign does.  See DESIGN.md §4.
#pragma once

#include <cstddef>
#include <functional>

namespace mcs::util {

/// Runs body(i) for i in [0, count) exactly once each on min(workers,
/// count) threads (inline when that is at most one).  A throwing
/// invocation does NOT abandon the loop: every index still runs, and
/// afterwards the exception thrown at the lowest index is rethrown — the
/// same failure a sequential loop that collected all errors would report.
void parallel_for(std::size_t workers, std::size_t count,
                  const std::function<void(std::size_t)>& body);

/// Reasonable default worker count: hardware_concurrency, at least 1.
[[nodiscard]] std::size_t default_workers();

}  // namespace mcs::util
