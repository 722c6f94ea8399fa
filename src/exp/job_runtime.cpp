#include "mcs/exp/job_runtime.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>

#include "mcs/obs/metrics.hpp"
#include "mcs/obs/trace.hpp"
#include "mcs/util/thread_pool.hpp"

namespace mcs::exp {

namespace {

using Clock = std::chrono::steady_clock;

/// One thread watching every armed job: fires CancelToken::Deadline
/// when a job overruns its wall-clock budget, and CancelToken::
/// Shutdown on every armed token once the stop flag goes up.  Armed state
/// is keyed by token pointer; arm/disarm bracket each job.
class Watchdog {
public:
  Watchdog(std::int64_t timeout_ms, const std::atomic<bool>* stop)
      : timeout_ms_(timeout_ms), stop_(stop) {
    if (timeout_ms_ > 0 || stop_ != nullptr) {
      thread_ = std::thread([this] { loop(); });
    }
  }

  ~Watchdog() {
    {
      const std::lock_guard lock(mutex_);
      stopping_ = true;
    }
    wake_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  void arm(util::CancelToken* token) {
    if (!thread_.joinable()) return;
    const auto deadline = timeout_ms_ > 0
                              ? Clock::now() + std::chrono::milliseconds(timeout_ms_)
                              : Clock::time_point::max();
    {
      const std::lock_guard lock(mutex_);
      entries_.push_back({token, deadline});
    }
    wake_.notify_all();
  }

  void disarm(const util::CancelToken* token) {
    if (!thread_.joinable()) return;
    const std::lock_guard lock(mutex_);
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->token == token) {
        entries_.erase(it);
        return;
      }
    }
  }

private:
  struct Entry {
    util::CancelToken* token;
    Clock::time_point deadline;
  };

  void loop() {
    std::unique_lock lock(mutex_);
    while (!stopping_) {
      const auto now = Clock::now();
      const bool stop_requested = stop_ != nullptr && stop_->load();
      auto next_wake = Clock::time_point::max();
      for (auto it = entries_.begin(); it != entries_.end();) {
        if (stop_requested) {
          it->token->cancel(util::CancelReason::Shutdown);
          it = entries_.erase(it);
        } else if (now >= it->deadline) {
          it->token->cancel(util::CancelReason::Deadline);
          it = entries_.erase(it);
        } else {
          next_wake = std::min(next_wake, it->deadline);
          ++it;
        }
      }
      // With a stop flag to watch, poll it a few hundred times a second
      // even while no deadline is near.
      if (stop_ != nullptr) {
        next_wake = std::min(next_wake, now + std::chrono::milliseconds(5));
      }
      if (next_wake == Clock::time_point::max()) {
        wake_.wait(lock);
      } else {
        wake_.wait_until(lock, next_wake);
      }
    }
  }

  const std::int64_t timeout_ms_;
  const std::atomic<bool>* const stop_;
  std::thread thread_;
  std::mutex mutex_;
  std::condition_variable wake_;
  std::vector<Entry> entries_;
  bool stopping_ = false;
};

void inject_fault(const RuntimeOptions& options, std::size_t job_index,
                  const util::CancelToken& token) {
  for (const RuntimeFault& fault : options.faults) {
    if (fault.job_index != job_index) continue;
    const std::string where = " (job " + std::to_string(job_index) + ")";
    switch (fault.kind) {
      case RuntimeFault::Kind::ThrowPermanent:
        throw std::runtime_error("injected permanent fault" + where);
      case RuntimeFault::Kind::Stall:
        // Spin until the watchdog (or shutdown) cancels the job.  A stall
        // with nothing armed to break it would hang forever — fail loudly
        // instead.
        if (options.job_timeout_ms <= 0 && options.stop == nullptr) {
          throw std::runtime_error("injected stall without watchdog" + where);
        }
        while (!token.cancelled()) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        token.throw_if_cancelled();
        return;  // unreachable
    }
  }
}

}  // namespace

const char* to_string(RunState state) noexcept {
  switch (state) {
    case RunState::Done: return "done";
    case RunState::Timeout: return "timeout";
    case RunState::Failed: return "failed";
    case RunState::Pending: return "pending";
  }
  return "unknown";
}

std::vector<JobDisposition> run_jobs(
    const RuntimeOptions& options, std::size_t count,
    const std::function<void(std::size_t, const util::CancelToken&)>& body,
    const std::vector<char>* already_done,
    const std::function<void(std::size_t, const JobDisposition&)>& on_settled,
    RuntimeReport* report) {
  std::vector<JobDisposition> dispositions(count);
  const std::size_t workers =
      std::min(options.workers == 0 ? 1 : options.workers,
               std::max<std::size_t>(1, count));
  std::atomic<bool> interrupted{false};

  {
    Watchdog watchdog(options.job_timeout_ms, options.stop);
    util::ThreadPool pool(workers);
    pool.parallel_for(count, [&](std::size_t i) {
      JobDisposition& disp = dispositions[i];
      if (already_done != nullptr && (*already_done)[i]) {
        // Recovered from the journal: counts as done, nothing re-runs and
        // nothing is re-journaled.
        disp.state = RunState::Done;
        return;
      }
      if (options.stop != nullptr && options.stop->load()) {
        interrupted.store(true, std::memory_order_relaxed);
        return;  // stays Pending: the resume re-runs it
      }

      util::CancelToken token;
      watchdog.arm(&token);
      try {
        // Inside the try block: stack unwinding on any failure path
        // closes the span, keeping B/E events balanced.
        const obs::Span job_span("job.attempt", static_cast<std::uint64_t>(i));
        inject_fault(options, i, token);
        body(i, token);
        disp.state = RunState::Done;
      } catch (const util::CancelledError& error) {
        // A shutdown leaves the job Pending (result discarded, the resume
        // re-runs it); a deadline is a terminal timeout.
        if (error.reason() == util::CancelReason::Deadline) {
          obs::instant("job.timeout", static_cast<std::uint64_t>(i));
          disp.state = RunState::Timeout;
          disp.error = "timeout: watchdog deadline " +
                       std::to_string(options.job_timeout_ms) + " ms exceeded";
        }
      } catch (const std::exception& error) {
        disp.state = RunState::Failed;
        disp.error = error.what();
      }
      watchdog.disarm(&token);
      if (disp.state == RunState::Pending) {
        interrupted.store(true, std::memory_order_relaxed);
        return;
      }
      if (on_settled) on_settled(i, disp);
    });
  }

  if (obs::metrics_enabled()) {
    // Published once, after the pool has joined, from this single thread:
    // the totals are a pure function of the dispositions and therefore
    // identical for any worker count.
    static const obs::Counter done_c = obs::counter("runtime.jobs_done");
    static const obs::Counter timeout_c = obs::counter("runtime.jobs_timeout");
    static const obs::Counter failed_c = obs::counter("runtime.jobs_failed");
    for (const JobDisposition& disp : dispositions) {
      switch (disp.state) {
        case RunState::Done: done_c.add(); break;
        case RunState::Timeout: timeout_c.add(); break;
        case RunState::Failed: failed_c.add(); break;
        case RunState::Pending: break;
      }
    }
  }

  if (report != nullptr) {
    report->workers = workers;
    report->interrupted = interrupted.load() ||
                          (options.stop != nullptr && options.stop->load());
  }
  return dispositions;
}

}  // namespace mcs::exp
