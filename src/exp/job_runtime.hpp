// Job runtime shared by the campaign and validation harnesses.
//
// run_jobs() executes N independent, deterministic job bodies on a
// ThreadPool and runs each exactly once under two layers:
//
//   1. Watchdog deadlines — a dedicated watchdog thread arms a wall-clock
//      deadline per job and fires the job's CancelToken when it expires;
//      the body's inner loops (SA / OS / OR via their options) poll the
//      token and unwind with util::CancelledError, which the runtime
//      records as a `timeout` disposition.
//   2. Cooperative cancellation — the same token also carries shutdown
//      (SIGINT/SIGTERM): a set stop flag cancels in-flight jobs and leaves
//      unstarted ones `pending`, so a drain takes at most one job's time.
//
// State machine per job (DESIGN.md §6):
//
//   pending → running → done
//                     → timeout   (watchdog fired)
//                     → failed    (the body threw)
//   pending → pending             (stop requested before or while running)
//
// Determinism contract: every disposition — state and error text — is a
// pure function of (options, job index, body behaviour).  Wall-clock only
// decides WHEN a watchdog fires.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "mcs/util/cancel.hpp"

namespace mcs::exp {

/// Terminal (and initial) states of a job in the runtime.  The values are
/// signed and journaled; 3 is retired and must not be reused.
enum class RunState : std::uint8_t {
  Done = 0,     ///< body completed
  Timeout = 1,  ///< watchdog deadline fired (CancelledError unwound)
  Failed = 2,   ///< the body threw
  Pending = 4,  ///< never finished (shutdown drained the queue first)
};

[[nodiscard]] const char* to_string(RunState state) noexcept;

/// Test-only fault injection: the runtime raises the configured failure
/// for job `job_index` *before* invoking its body.
struct RuntimeFault {
  enum class Kind : std::uint8_t {
    ThrowPermanent,  ///< std::runtime_error — the job fails
    Stall,           ///< spin until the watchdog cancels the job
  };
  std::size_t job_index = 0;
  Kind kind = Kind::ThrowPermanent;
};

struct RuntimeOptions {
  std::size_t workers = 1;
  /// Per-job watchdog deadline in milliseconds (0 = no watchdog).
  std::int64_t job_timeout_ms = 0;
  /// Graceful-shutdown flag (signal handlers set it): in-flight jobs are
  /// cancelled, unstarted jobs stay Pending.  Not owned; may be null.
  const std::atomic<bool>* stop = nullptr;
  /// Test-only injected faults (see RuntimeFault).
  std::vector<RuntimeFault> faults;
};

/// How one job ended.
struct JobDisposition {
  RunState state = RunState::Pending;
  std::string error;  ///< failure or timeout reason
};

/// What a run_jobs() call resolved beyond the dispositions.
struct RuntimeReport {
  std::size_t workers = 0;
  bool interrupted = false;  ///< stop flag observed before all jobs settled
};

/// Runs `count` jobs under the layers above.
///
/// `body(i, token)` does the work of job i, polling `token` from its long
/// loops (or passing it down to SA/OS/OR options).  `already_done`, when
/// non-null, flags jobs recovered from a journal: they settle as Done and
/// `on_settled` is NOT called for them (their results are already
/// journaled).  `on_settled(i, disposition)`, when non-null, runs on the
/// worker thread right after job i reaches a terminal state — the suite
/// driver uses it to journal results as they land.
///
/// Returns one JobDisposition per job (indexed by job) plus the report.
/// Never throws for job failures; only programming errors (e.g. journal
/// I/O inside on_settled) propagate.
std::vector<JobDisposition> run_jobs(
    const RuntimeOptions& options, std::size_t count,
    const std::function<void(std::size_t, const util::CancelToken&)>& body,
    const std::vector<char>* already_done = nullptr,
    const std::function<void(std::size_t, const JobDisposition&)>& on_settled = {},
    RuntimeReport* report = nullptr);

}  // namespace mcs::exp
