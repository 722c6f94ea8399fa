// Job-runtime resilience tests: deterministic retry/backoff, watchdog
// timeouts, admission shedding, graceful drain, and — at the campaign
// level — fault-injected runs staying bit-identical across thread counts
// and a partial journal resuming to the exact uninterrupted signature.
#include "mcs/exp/job_runtime.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

#include "mcs/exp/campaign.hpp"
#include "mcs/exp/journal.hpp"
#include "mcs/exp/validation.hpp"

namespace mcs::exp {
namespace {

namespace fs = std::filesystem;

RuntimeOptions fast_options() {
  RuntimeOptions options;
  options.workers = 2;
  options.backoff_base_ms = 1;  // keep retry sleeps negligible in tests
  options.backoff_cap_ms = 2;
  return options;
}

TEST(JobRuntime, BackoffIsDeterministicAndBounded) {
  RuntimeOptions options;
  options.backoff_base_ms = 10;
  options.backoff_cap_ms = 200;
  options.retry_seed = 42;
  for (std::size_t job = 0; job < 8; ++job) {
    for (int retry = 1; retry <= 6; ++retry) {
      const std::int64_t delay = backoff_delay_ms(options, job, retry);
      EXPECT_EQ(delay, backoff_delay_ms(options, job, retry))
          << "job " << job << " retry " << retry;
      EXPECT_GE(delay, 0);
      EXPECT_LT(delay, 200);  // never past the cap
      if (retry == 1) EXPECT_LT(delay, 10);  // first retry: base window
    }
  }
  // The jitter stream depends on the seed: different seeds must not
  // produce the same schedule everywhere.
  RuntimeOptions other = options;
  other.retry_seed = 43;
  bool any_difference = false;
  for (std::size_t job = 0; job < 8 && !any_difference; ++job) {
    any_difference = backoff_delay_ms(options, job, 1) != backoff_delay_ms(other, job, 1);
  }
  EXPECT_TRUE(any_difference);
}

TEST(JobRuntime, HappyPathRunsEveryJobExactlyOnce) {
  std::vector<std::atomic<int>> runs(16);
  RuntimeReport report;
  const auto dispositions = run_jobs(
      fast_options(), runs.size(),
      [&](std::size_t i, const util::CancelToken&) { runs[i].fetch_add(1); },
      nullptr, {}, &report);
  ASSERT_EQ(dispositions.size(), runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "job " << i;
    EXPECT_EQ(dispositions[i].state, RunState::Done);
    EXPECT_EQ(dispositions[i].attempts, 1);
    EXPECT_TRUE(dispositions[i].error.empty());
  }
  EXPECT_EQ(report.done, runs.size());
  EXPECT_EQ(report.retries, 0u);
  EXPECT_FALSE(report.interrupted);
}

TEST(JobRuntime, TransientFaultIsRetriedToDone) {
  RuntimeOptions options = fast_options();
  options.max_retries = 2;
  options.faults = {{0, 1, RuntimeFault::Kind::ThrowTransient}};
  std::atomic<int> body_runs{0};
  RuntimeReport report;
  const auto dispositions = run_jobs(
      options, 3, [&](std::size_t, const util::CancelToken&) { ++body_runs; },
      nullptr, {}, &report);
  EXPECT_EQ(dispositions[0].state, RunState::Done);
  EXPECT_EQ(dispositions[0].attempts, 2);
  // A done-after-retry row keeps the overcome reason for the report.
  EXPECT_EQ(dispositions[0].error, "injected transient fault (job 0, attempt 1)");
  EXPECT_EQ(dispositions[1].state, RunState::Done);
  EXPECT_EQ(dispositions[1].attempts, 1);
  EXPECT_EQ(report.retries, 1u);
  EXPECT_EQ(report.done, 3u);
  EXPECT_EQ(body_runs.load(), 3);  // attempt 1 of job 0 faulted before the body
}

TEST(JobRuntime, RetryExhaustionBecomesFailed) {
  RuntimeOptions options = fast_options();
  options.max_retries = 2;
  options.faults = {{0, 1, RuntimeFault::Kind::ThrowTransient},
                    {0, 2, RuntimeFault::Kind::ThrowTransient},
                    {0, 3, RuntimeFault::Kind::ThrowTransient}};
  RuntimeReport report;
  const auto dispositions = run_jobs(
      options, 1, [](std::size_t, const util::CancelToken&) {}, nullptr, {},
      &report);
  EXPECT_EQ(dispositions[0].state, RunState::Failed);
  EXPECT_EQ(dispositions[0].attempts, 3);
  EXPECT_EQ(dispositions[0].error,
            "injected transient fault (job 0, attempt 3) "
            "(retries exhausted after 3 attempt(s))");
  EXPECT_EQ(report.failed, 1u);
  EXPECT_EQ(report.retries, 2u);
}

TEST(JobRuntime, PermanentFaultIsNeverRetried) {
  RuntimeOptions options = fast_options();
  options.max_retries = 5;
  options.faults = {{0, 1, RuntimeFault::Kind::ThrowPermanent}};
  const auto dispositions = run_jobs(
      options, 1, [](std::size_t, const util::CancelToken&) {});
  EXPECT_EQ(dispositions[0].state, RunState::Failed);
  EXPECT_EQ(dispositions[0].attempts, 1);
  EXPECT_EQ(dispositions[0].error, "injected permanent fault (job 0, attempt 1)");
}

TEST(JobRuntime, WatchdogDeadlineYieldsTimeoutRow) {
  RuntimeOptions options = fast_options();
  options.job_timeout_ms = 40;
  options.faults = {{0, 1, RuntimeFault::Kind::Stall}};
  std::atomic<int> body_runs{0};
  RuntimeReport report;
  const auto dispositions = run_jobs(
      options, 2, [&](std::size_t, const util::CancelToken&) { ++body_runs; },
      nullptr, {}, &report);
  EXPECT_EQ(dispositions[0].state, RunState::Timeout);
  EXPECT_EQ(dispositions[0].attempts, 1);
  EXPECT_EQ(dispositions[0].error, "timeout: watchdog deadline 40 ms exceeded");
  EXPECT_EQ(dispositions[1].state, RunState::Done);
  EXPECT_EQ(report.timeouts, 1u);
  EXPECT_EQ(body_runs.load(), 1);  // the stalled attempt never reached the body
}

TEST(JobRuntime, AdmissionControlShedsIndicesPastTheLimit) {
  RuntimeOptions options = fast_options();
  options.queue_limit = 2;
  std::vector<std::atomic<int>> runs(5);
  RuntimeReport report;
  const auto dispositions = run_jobs(
      options, runs.size(),
      [&](std::size_t i, const util::CancelToken&) { runs[i].fetch_add(1); },
      nullptr, {}, &report);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(dispositions[i].state, RunState::Done) << "job " << i;
    EXPECT_EQ(runs[i].load(), 1) << "job " << i;
  }
  for (std::size_t i = 2; i < 5; ++i) {
    EXPECT_EQ(dispositions[i].state, RunState::Shed) << "job " << i;
    EXPECT_EQ(dispositions[i].attempts, 0) << "job " << i;
    EXPECT_EQ(dispositions[i].error, "shed: admission queue limit 2 exceeded");
    EXPECT_EQ(runs[i].load(), 0) << "job " << i;  // a shed body never runs
  }
  EXPECT_EQ(report.shed, 3u);
}

TEST(JobRuntime, PreSetStopFlagLeavesEverythingPending) {
  RuntimeOptions options = fast_options();
  std::atomic<bool> stop{true};
  options.stop = &stop;
  std::atomic<int> body_runs{0};
  std::atomic<int> settled{0};
  RuntimeReport report;
  const auto dispositions = run_jobs(
      options, 4, [&](std::size_t, const util::CancelToken&) { ++body_runs; },
      nullptr, [&](std::size_t, const JobDisposition&) { ++settled; }, &report);
  for (const JobDisposition& disp : dispositions) {
    EXPECT_EQ(disp.state, RunState::Pending);
    EXPECT_EQ(disp.attempts, 0);
  }
  EXPECT_EQ(body_runs.load(), 0);
  EXPECT_EQ(settled.load(), 0);  // pending jobs are not settled (or journaled)
  EXPECT_TRUE(report.interrupted);
  EXPECT_EQ(report.pending, 4u);
}

TEST(JobRuntime, MidRunStopDrainsRemainingJobs) {
  RuntimeOptions options = fast_options();
  options.workers = 1;  // deterministic 0,1,2,... execution order
  std::atomic<bool> stop{false};
  options.stop = &stop;
  RuntimeReport report;
  const auto dispositions = run_jobs(
      options, 4,
      [&](std::size_t i, const util::CancelToken&) {
        if (i == 0) stop.store(true);  // request shutdown after job 0's work
      },
      nullptr, {}, &report);
  EXPECT_EQ(dispositions[0].state, RunState::Done);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(dispositions[i].state, RunState::Pending) << "job " << i;
  }
  EXPECT_TRUE(report.interrupted);
  EXPECT_EQ(report.done, 1u);
  EXPECT_EQ(report.pending, 3u);
}

TEST(JobRuntime, AlreadyDoneJobsAreSkippedAndNotResettled) {
  const std::vector<char> done_mask = {1, 0, 1};
  std::vector<std::atomic<int>> runs(3);
  std::vector<int> settled;
  std::mutex settled_mutex;
  const auto dispositions = run_jobs(
      fast_options(), 3,
      [&](std::size_t i, const util::CancelToken&) { runs[i].fetch_add(1); },
      &done_mask,
      [&](std::size_t i, const JobDisposition&) {
        const std::lock_guard lock(settled_mutex);
        settled.push_back(static_cast<int>(i));
      });
  EXPECT_EQ(runs[0].load(), 0);
  EXPECT_EQ(runs[1].load(), 1);
  EXPECT_EQ(runs[2].load(), 0);
  EXPECT_EQ(dispositions[0].state, RunState::Done);
  EXPECT_EQ(dispositions[0].attempts, 0);  // recovered, not re-run
  EXPECT_EQ(dispositions[1].attempts, 1);
  ASSERT_EQ(settled.size(), 1u);  // only the freshly run job is journaled
  EXPECT_EQ(settled[0], 1);
}

TEST(JobRuntime, FaultDispositionsAreWorkerCountInvariant) {
  RuntimeOptions options = fast_options();
  options.max_retries = 1;
  options.queue_limit = 7;
  options.faults = {{1, 1, RuntimeFault::Kind::ThrowTransient},
                    {2, 1, RuntimeFault::Kind::ThrowTransient},
                    {2, 2, RuntimeFault::Kind::ThrowTransient},
                    {3, 1, RuntimeFault::Kind::ThrowPermanent}};
  const auto body = [](std::size_t, const util::CancelToken&) {};

  options.workers = 1;
  const auto serial = run_jobs(options, 8, body);
  options.workers = 4;
  const auto parallel = run_jobs(options, 8, body);

  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].state, parallel[i].state) << "job " << i;
    EXPECT_EQ(serial[i].attempts, parallel[i].attempts) << "job " << i;
    EXPECT_EQ(serial[i].error, parallel[i].error) << "job " << i;
  }
  EXPECT_EQ(serial[2].state, RunState::Failed);   // retries exhausted
  EXPECT_EQ(serial[3].state, RunState::Failed);   // permanent
  EXPECT_EQ(serial[7].state, RunState::Shed);     // past queue_limit
}

// ---- campaign-level integration -------------------------------------

CampaignSpec resilience_spec(std::size_t jobs) {
  CampaignSpec spec;
  spec.name = "resilience-test";
  spec.suite = "tiny";
  spec.seeds_per_dim = 2;
  spec.suite_base_seed = 500;
  spec.campaign_seed = 42;
  spec.strategies = {Strategy::Sf, Strategy::Os};
  spec.jobs = jobs;
  return spec;
}

class CampaignResilienceTest : public ::testing::Test {
protected:
  void SetUp() override {
    std::string tmpl = (fs::temp_directory_path() / "mcs_runtime_XXXXXX").string();
    ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  fs::path dir_;
};

// Fault-injected campaigns obey the same thread-count bit-identity
// contract as clean ones: retried, failed and timed-out rows included.
TEST_F(CampaignResilienceTest, FaultInjectedRunsAreThreadCountInvariant) {
  CampaignSpec spec = resilience_spec(1);
  spec.max_retries = 1;
  RunOptions options;
  options.faults = {{1, 1, RuntimeFault::Kind::ThrowTransient},
                    {2, 1, RuntimeFault::Kind::ThrowPermanent}};

  const CampaignResult serial = run_campaign(spec, options);
  spec.jobs = 4;
  const CampaignResult parallel = run_campaign(spec, options);

  ASSERT_GT(serial.jobs.size(), 2u);
  EXPECT_EQ(serial.jobs[1].state, RunState::Done);
  EXPECT_EQ(serial.jobs[1].attempts, 2);
  EXPECT_EQ(serial.jobs[1].error, "injected transient fault (job 1, attempt 1)");
  EXPECT_EQ(serial.jobs[2].state, RunState::Failed);
  EXPECT_TRUE(serial.jobs[2].outcomes.empty());
  EXPECT_EQ(serial.signature(), parallel.signature());
  for (std::size_t i = 0; i < serial.jobs.size(); ++i) {
    EXPECT_EQ(serial.jobs[i].signature(), parallel.jobs[i].signature())
        << "job " << i;
  }
}

// A stalled job degrades to a `timeout` row and the campaign carries on.
TEST_F(CampaignResilienceTest, StalledJobBecomesTimeoutRow) {
  CampaignSpec spec = resilience_spec(2);
  spec.job_timeout_ms = 50;
  RunOptions options;
  options.faults = {{0, 1, RuntimeFault::Kind::Stall}};

  const CampaignResult result = run_campaign(spec, options);
  ASSERT_GT(result.jobs.size(), 1u);
  EXPECT_EQ(result.jobs[0].state, RunState::Timeout);
  EXPECT_EQ(result.jobs[0].error, "timeout: watchdog deadline 50 ms exceeded");
  EXPECT_TRUE(result.jobs[0].outcomes.empty());
  EXPECT_EQ(result.jobs[1].state, RunState::Done);
  EXPECT_FALSE(result.interrupted);
}

// The crash-safety acceptance property: a campaign resumed from a PARTIAL
// journal — only some jobs checkpointed — reproduces the uninterrupted
// run's signature exactly, re-running only the missing jobs.  The
// resilience layers themselves must not touch a signed field either: a
// fully journaled run and a run under a watchdog generous enough never
// to fire both sign like the bare run.
TEST_F(CampaignResilienceTest, PartialJournalResumeMatchesUninterruptedRun) {
  const CampaignSpec spec = resilience_spec(2);
  const CampaignResult uninterrupted = run_campaign(spec);
  ASSERT_GE(uninterrupted.jobs.size(), 3u);

  CampaignSpec watched = spec;
  watched.job_timeout_ms = 60000;
  EXPECT_EQ(run_campaign(watched).signature(), uninterrupted.signature());

  // Journal a full run, then rewrite the journal keeping only the first
  // two records — the deterministic equivalent of a crash after two jobs.
  const fs::path journal = dir_ / "partial.journal";
  RunOptions journal_options;
  journal_options.journal_path = journal.string();
  EXPECT_EQ(run_campaign(spec, journal_options).signature(),
            uninterrupted.signature());
  const JournalContents full = read_journal(journal);
  ASSERT_EQ(full.records.size(), uninterrupted.jobs.size());
  {
    JournalWriter writer = JournalWriter::create(journal, full.header);
    writer.append(full.records[0]);
    writer.append(full.records[1]);
    writer.close();
  }

  RunOptions resume_options;
  resume_options.journal_path = journal.string();
  resume_options.resume = true;
  const CampaignResult resumed = run_campaign(spec, resume_options);

  EXPECT_EQ(resumed.resumed_jobs, 2u);
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.signature(), uninterrupted.signature());
  ASSERT_EQ(resumed.jobs.size(), uninterrupted.jobs.size());
  for (std::size_t i = 0; i < resumed.jobs.size(); ++i) {
    EXPECT_EQ(resumed.jobs[i].signature(), uninterrupted.jobs[i].signature())
        << "job " << i;
  }
  // The resumed run topped the journal back up: every job is checkpointed.
  EXPECT_EQ(read_journal(journal).records.size(), uninterrupted.jobs.size());
}

TEST_F(CampaignResilienceTest, ResumeOfCompleteJournalRecomputesNothing) {
  const CampaignSpec spec = resilience_spec(2);
  const fs::path journal = dir_ / "complete.journal";
  RunOptions journal_options;
  journal_options.journal_path = journal.string();
  const CampaignResult first = run_campaign(spec, journal_options);

  RunOptions resume_options;
  resume_options.journal_path = journal.string();
  resume_options.resume = true;
  const CampaignResult resumed = run_campaign(spec, resume_options);
  EXPECT_EQ(resumed.resumed_jobs, first.jobs.size());
  EXPECT_EQ(resumed.signature(), first.signature());
}

TEST_F(CampaignResilienceTest, ResumeRefusesAJournalFromAnotherSpec) {
  const fs::path journal = dir_ / "other.journal";
  RunOptions journal_options;
  journal_options.journal_path = journal.string();
  (void)run_campaign(resilience_spec(1), journal_options);

  CampaignSpec other = resilience_spec(1);
  other.campaign_seed = 43;  // digest-relevant change
  RunOptions resume_options;
  resume_options.journal_path = journal.string();
  resume_options.resume = true;
  EXPECT_THROW((void)run_campaign(other, resume_options), JournalError);
}

TEST_F(CampaignResilienceTest, SpecDigestIgnoresNameAndJobs) {
  CampaignSpec a = resilience_spec(1);
  CampaignSpec b = a;
  b.name = "renamed";
  b.jobs = 8;
  EXPECT_EQ(campaign_spec_digest(a), campaign_spec_digest(b));
  CampaignSpec c = a;
  c.max_retries = 3;  // resilience knobs change which rows exist
  EXPECT_NE(campaign_spec_digest(a), campaign_spec_digest(c));
}

// The validation harness rides the same runtime: injected transient
// faults retry deterministically and stay thread-count invariant.
TEST(ValidationResilience, FaultRetryIsThreadCountInvariant) {
  ValidationSpec spec;
  spec.name = "resilience-test";
  spec.suite = "validation";
  spec.seeds_per_dim = 2;
  spec.campaign_seed = 42;
  spec.strategy = Strategy::Sf;
  spec.max_retries = 1;
  spec.jobs = 1;
  RunOptions options;
  options.faults = {{1, 1, RuntimeFault::Kind::ThrowTransient}};

  const ValidationResult serial = run_validation(spec, options);
  spec.jobs = 4;
  const ValidationResult parallel = run_validation(spec, options);

  ASSERT_GT(serial.jobs.size(), 1u);
  EXPECT_EQ(serial.jobs[1].state, RunState::Done);
  EXPECT_EQ(serial.jobs[1].attempts, 2);
  EXPECT_EQ(serial.jobs[1].error, "injected transient fault (job 1, attempt 1)");
  EXPECT_EQ(serial.signature(), parallel.signature());
}

}  // namespace
}  // namespace mcs::exp
