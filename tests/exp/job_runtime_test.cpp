// Job-runtime tests: the suite driver's one job loop (run_suite) under a
// test body — failed jobs, graceful drain, journal-recovered jobs — and,
// at the campaign and validation level, a partial journal resuming to the
// exact uninterrupted signature.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "mcs/exp/campaign.hpp"
#include "mcs/exp/journal.hpp"
#include "mcs/exp/suite_driver.hpp"
#include "mcs/exp/validation.hpp"

namespace mcs::exp {
namespace {

namespace fs = std::filesystem;

class TempDirTest : public ::testing::Test {
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

class JobRuntime : public TempDirTest {};

/// A tiny-suite spec with `count` jobs (even) on `workers` threads.
CampaignSpec bodies_spec(std::size_t workers, std::size_t count) {
  CampaignSpec spec;
  spec.name = "runtime-test";
  spec.suite = "tiny";
  spec.seeds_per_dim = count / 2;
  spec.suite_base_seed = 500;
  spec.jobs = workers;
  return spec;
}

/// Runs the suite driver with `body(job_index)` in place of a synthesis
/// job.
CampaignResult run_bodies(const CampaignSpec& spec, const RunOptions& options,
                          const std::function<void(std::size_t)>& body) {
  const JournalCodec<JobResult> codec{campaign_spec_digest(spec), encode_job_result,
                                      decode_job_result};
  return run_suite<CampaignResult>(
      spec, options, "test.job", codec,
      [&body](const gen::GeneratedSystem&, JobResult& job, MetricsSnapshot&) {
        body(job.job_index);
      });
}

/// A body that throws for the jobs in `failing` and counts every run.
std::function<void(std::size_t)> failing_body(std::vector<std::atomic<int>>& runs,
                                              std::set<std::size_t> failing) {
  return [&runs, failing = std::move(failing)](std::size_t i) {
    runs[i].fetch_add(1);
    if (failing.contains(i)) {
      throw std::runtime_error("permanent fault (job " + std::to_string(i) + ")");
    }
  };
}

std::vector<std::size_t> journaled_jobs(const fs::path& journal) {
  std::vector<std::size_t> jobs;
  for (const std::string& record : read_journal(journal).records) {
    jobs.push_back(decode_job_result(record).job_index);
  }
  return jobs;
}

TEST_F(JobRuntime, HappyPathRunsEveryJobExactlyOnce) {
  std::vector<std::atomic<int>> runs(16);
  const CampaignResult result =
      run_bodies(bodies_spec(2, runs.size()), {},
                 [&](std::size_t i) { runs[i].fetch_add(1); });
  ASSERT_EQ(result.jobs.size(), runs.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].load(), 1) << "job " << i;
    EXPECT_EQ(result.jobs[i].job_index, i);
    EXPECT_EQ(result.jobs[i].state, RunState::Done);
    EXPECT_TRUE(result.jobs[i].error.empty());
  }
  EXPECT_EQ(result.workers, 2u);
  EXPECT_FALSE(result.interrupted());
}

TEST_F(JobRuntime, PermanentFaultIsNeverRetried) {
  std::vector<std::atomic<int>> runs(2);
  const CampaignResult result =
      run_bodies(bodies_spec(2, runs.size()), {}, failing_body(runs, {0}));
  EXPECT_EQ(result.jobs[0].state, RunState::Failed);
  EXPECT_EQ(result.jobs[0].error, "permanent fault (job 0)");
  EXPECT_EQ(runs[0].load(), 1);  // the failing body ran once
  EXPECT_EQ(result.jobs[1].state, RunState::Done);
  EXPECT_EQ(runs[1].load(), 1);
  EXPECT_FALSE(result.interrupted());
}

TEST_F(JobRuntime, PreSetStopFlagLeavesEverythingPending) {
  const std::atomic<bool> stop{true};
  RunOptions options;
  options.stop = &stop;
  options.journal_path = (dir_ / "stopped.journal").string();
  std::atomic<int> body_runs{0};
  const CampaignResult result =
      run_bodies(bodies_spec(2, 4), options, [&](std::size_t) { ++body_runs; });
  ASSERT_EQ(result.jobs.size(), 4u);
  for (std::size_t i = 0; i < result.jobs.size(); ++i) {
    EXPECT_EQ(result.jobs[i].job_index, i);
    EXPECT_EQ(result.jobs[i].state, RunState::Pending) << "job " << i;
    EXPECT_EQ(result.jobs[i].error,
              "pending: shutdown requested before the job started");
  }
  EXPECT_EQ(body_runs.load(), 0);
  EXPECT_TRUE(result.interrupted());
  // Pending jobs are not settled, so nothing is journaled.
  EXPECT_EQ(result.journal_appends, 0u);
  EXPECT_TRUE(read_journal(options.journal_path).records.empty());
}

// A stop flag raised while a job runs lets that job finish: it settles
// `done` and is journaled.  The jobs after it never start and stay
// pending, unjournaled, for a --resume to run.
TEST_F(JobRuntime, MidRunStopDrainsRemainingJobs) {
  std::atomic<bool> stop{false};
  RunOptions options;
  options.stop = &stop;
  options.journal_path = (dir_ / "drained.journal").string();
  std::vector<std::atomic<int>> runs(4);
  const CampaignResult result =  // one worker: jobs run in order 0, 1, 2, ...
      run_bodies(bodies_spec(1, runs.size()), options, [&](std::size_t i) {
        runs[i].fetch_add(1);
        if (i == 1) stop.store(true);
      });
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(result.jobs[i].state, i <= 1 ? RunState::Done : RunState::Pending)
        << "job " << i;
    EXPECT_EQ(runs[i].load(), i <= 1 ? 1 : 0) << "job " << i;
  }
  EXPECT_TRUE(result.jobs[1].error.empty());
  EXPECT_TRUE(result.interrupted());
  EXPECT_EQ(result.count(RunState::Done), 2u);
  EXPECT_EQ(result.count(RunState::Pending), 2u);
  EXPECT_EQ(journaled_jobs(options.journal_path), (std::vector<std::size_t>{0, 1}));
}

// A shutdown request that lands after the last job settled drains
// nothing: every row is done, so the run is complete, not interrupted.
TEST_F(JobRuntime, StopAfterTheLastJobSettledIsNotAnInterruption) {
  std::atomic<bool> stop{false};
  RunOptions options;
  options.stop = &stop;
  const CampaignResult result =
      run_bodies(bodies_spec(1, 4), options, [&](std::size_t i) {
        if (i == 3) stop.store(true);
      });
  EXPECT_EQ(result.count(RunState::Done), 4u);
  EXPECT_FALSE(result.interrupted());
}

TEST_F(JobRuntime, AlreadyDoneJobsAreSkippedAndNotResettled) {
  const CampaignSpec spec = bodies_spec(2, 4);
  const fs::path journal = dir_ / "recovered.journal";
  RunOptions journal_options;
  journal_options.journal_path = journal.string();
  (void)run_bodies(spec, journal_options, [](std::size_t) {});
  // Keep only the records of jobs 0 and 2, as if the run died after them.
  const JournalContents full = read_journal(journal);
  {
    JournalWriter writer = JournalWriter::create(journal, full.header);
    for (const std::string& record : full.records) {
      const std::size_t job = decode_job_result(record).job_index;
      if (job == 0 || job == 2) writer.append(record);
    }
    writer.close();
  }

  RunOptions resume_options = journal_options;
  resume_options.resume = true;
  std::vector<std::atomic<int>> runs(4);
  const CampaignResult result =
      run_bodies(spec, resume_options, [&](std::size_t i) { runs[i].fetch_add(1); });
  EXPECT_EQ(runs[0].load(), 0);  // recovered, not re-run
  EXPECT_EQ(runs[1].load(), 1);
  EXPECT_EQ(runs[2].load(), 0);
  EXPECT_EQ(runs[3].load(), 1);
  EXPECT_EQ(result.count(RunState::Done), 4u);
  EXPECT_EQ(result.resumed_jobs, 2u);
  // Only the freshly run jobs are journaled, after the recovered records.
  EXPECT_EQ(result.journal_appends, 2u);
  const std::vector<std::size_t> journaled = journaled_jobs(journal);
  ASSERT_EQ(journaled.size(), 4u);
  EXPECT_EQ(std::multiset<std::size_t>(journaled.begin() + 2, journaled.end()),
            (std::multiset<std::size_t>{1, 3}));
}

TEST_F(JobRuntime, FaultDispositionsAreWorkerCountInvariant) {
  CampaignSpec spec = bodies_spec(1, 8);
  std::vector<std::atomic<int>> serial_runs(8);
  std::vector<std::atomic<int>> parallel_runs(8);

  const CampaignResult serial =
      run_bodies(spec, {}, failing_body(serial_runs, {2, 3, 5}));
  spec.jobs = 4;
  const CampaignResult parallel =
      run_bodies(spec, {}, failing_body(parallel_runs, {2, 3, 5}));

  ASSERT_EQ(serial.jobs.size(), parallel.jobs.size());
  for (std::size_t i = 0; i < serial.jobs.size(); ++i) {
    EXPECT_EQ(serial.jobs[i].state, parallel.jobs[i].state) << "job " << i;
    EXPECT_EQ(serial.jobs[i].error, parallel.jobs[i].error) << "job " << i;
    EXPECT_EQ(serial_runs[i].load(), 1) << "job " << i;
    EXPECT_EQ(parallel_runs[i].load(), 1) << "job " << i;
  }
  EXPECT_EQ(serial.jobs[2].state, RunState::Failed);
  EXPECT_EQ(serial.jobs[3].state, RunState::Failed);
  EXPECT_EQ(serial.jobs[3].error, "permanent fault (job 3)");
  EXPECT_EQ(serial.jobs[5].state, RunState::Failed);
  EXPECT_EQ(serial.count(RunState::Done), 5u);
  EXPECT_EQ(parallel.workers, 4u);
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

class CampaignResilienceTest : public TempDirTest {};

// The crash-safety acceptance property: a campaign resumed from a PARTIAL
// journal — only some jobs checkpointed — reproduces the uninterrupted
// run's signature exactly, re-running only the missing jobs.  Journaling
// itself must not touch a signed field either: a fully journaled run
// signs like the bare run.
TEST_F(CampaignResilienceTest, PartialJournalResumeMatchesUninterruptedRun) {
  const CampaignSpec spec = resilience_spec(2);
  const CampaignResult uninterrupted = run_campaign(spec);
  ASSERT_GE(uninterrupted.jobs.size(), 3u);

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
  EXPECT_FALSE(resumed.interrupted());
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
  CampaignSpec budget = a;
  budget.budgets.sa_max_evaluations += 1;
  EXPECT_NE(campaign_spec_digest(a), campaign_spec_digest(budget));
}

// A journal of one job kind never resumes under the other: both spec
// digests start with a kind tag, so --resume fails with JournalError.
TEST_F(CampaignResilienceTest, ResumeRefusesAJournalOfTheOtherKind) {
  const CampaignSpec campaign = resilience_spec(1);
  ValidationSpec validation;
  validation.suite = "tiny";
  validation.seeds_per_dim = campaign.seeds_per_dim;
  validation.suite_base_seed = campaign.suite_base_seed;
  validation.campaign_seed = campaign.campaign_seed;

  const fs::path campaign_journal = dir_ / "campaign.journal";
  const fs::path validation_journal = dir_ / "validation.journal";
  RunOptions options;
  options.journal_path = campaign_journal.string();
  (void)run_campaign(campaign, options);
  options.journal_path = validation_journal.string();
  (void)run_validation(validation, options);

  options.resume = true;
  options.journal_path = validation_journal.string();
  EXPECT_THROW((void)run_campaign(campaign, options), JournalError);
  options.journal_path = campaign_journal.string();
  EXPECT_THROW((void)run_validation(validation, options), JournalError);
}

// ---- validation-level integration -----------------------------------

ValidationSpec validation_spec(std::size_t jobs) {
  ValidationSpec spec;
  spec.name = "resilience-test";
  spec.suite = "validation";
  spec.seeds_per_dim = 3;
  spec.campaign_seed = 42;
  spec.strategy = Strategy::Os;
  spec.scenarios = {sim::FaultSpec::scenario("drop", 1),
                    sim::FaultSpec::scenario("babble", 1)};
  spec.jobs = jobs;
  return spec;
}

class ValidationResilience : public CampaignResilienceTest {};

TEST_F(ValidationResilience, SpecDigestIgnoresNameAndJobs) {
  const ValidationSpec a = validation_spec(1);
  ValidationSpec b = a;
  b.name = "renamed";
  b.jobs = 8;
  EXPECT_EQ(validation_spec_digest(a), validation_spec_digest(b));
  ValidationSpec fewer = a;
  fewer.scenarios.pop_back();
  EXPECT_NE(validation_spec_digest(a), validation_spec_digest(fewer));
  ValidationSpec reseeded = a;
  reseeded.scenarios[0].seed = 2;
  EXPECT_NE(validation_spec_digest(a), validation_spec_digest(reseeded));
  ValidationSpec budget = a;
  budget.max_sim_events = 1000;
  EXPECT_NE(validation_spec_digest(a), validation_spec_digest(budget));
}

// The campaign's crash-safety property, for validation: a run resumed
// from a partial journal signs like the uninterrupted run, and the
// recovered rows keep every reported field.
TEST_F(ValidationResilience, PartialJournalResumeMatchesUninterruptedRun) {
  const ValidationSpec spec = validation_spec(2);
  const ValidationResult uninterrupted = run_validation(spec);
  ASSERT_GE(uninterrupted.jobs.size(), 3u);

  const fs::path journal = dir_ / "partial.journal";
  RunOptions journal_options;
  journal_options.journal_path = journal.string();
  EXPECT_EQ(run_validation(spec, journal_options).signature(),
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
  const ValidationResult resumed = run_validation(spec, resume_options);

  EXPECT_EQ(resumed.resumed_jobs, 2u);
  EXPECT_FALSE(resumed.interrupted());
  EXPECT_EQ(resumed.signature(), uninterrupted.signature());
  ASSERT_EQ(resumed.jobs.size(), uninterrupted.jobs.size());
  for (std::size_t i = 0; i < resumed.jobs.size(); ++i) {
    const ValidationJob& got = resumed.jobs[i];
    const ValidationJob& want = uninterrupted.jobs[i];
    EXPECT_EQ(got.signature(), want.signature()) << "job " << i;
    EXPECT_EQ(got.evals, want.evals) << "job " << i;
    ASSERT_EQ(got.scenarios.size(), want.scenarios.size()) << "job " << i;
    for (std::size_t si = 0; si < got.scenarios.size(); ++si) {
      EXPECT_EQ(got.scenarios[si].faults.can_frames_dropped,
                want.scenarios[si].faults.can_frames_dropped);
      EXPECT_EQ(got.scenarios[si].faults.babble_seizures,
                want.scenarios[si].faults.babble_seizures);
    }
  }
  EXPECT_EQ(read_journal(journal).records.size(), uninterrupted.jobs.size());
}

}  // namespace
}  // namespace mcs::exp
