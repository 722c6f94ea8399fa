// The --metrics snapshot is a report of a finished run (DESIGN.md §7).
// These tests derive it from a small campaign and a small validation and
// check each metric against the result it is computed from: the
// iteration histogram against the jobs' MCS runs, the runtime counters
// against the row states, the fault counters against the scenarios, the
// summed engine counters against the per-row column, the journal
// counters against the records written, and the JSON's shape.
#include "mcs/exp/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "mcs/core/analysis_workspace.hpp"
#include "mcs/exp/campaign.hpp"
#include "mcs/exp/suite_driver.hpp"
#include "mcs/exp/validation.hpp"
#include "mcs/sim/fault.hpp"

#include "json_check.hpp"

namespace mcs::exp {
namespace {

CampaignSpec campaign_spec(std::size_t jobs) {
  CampaignSpec spec;
  spec.name = "metrics-test";
  spec.suite = "tiny";
  spec.seeds_per_dim = 2;
  spec.suite_base_seed = 500;
  spec.campaign_seed = 42;
  spec.strategies = {Strategy::Sf, Strategy::Os, Strategy::Sas};
  spec.budgets.sa_max_evaluations = 60;
  spec.jobs = jobs;
  return spec;
}

ValidationSpec validation_spec(std::size_t jobs) {
  ValidationSpec spec;
  spec.name = "metrics-test";
  spec.suite = "validation";
  spec.seeds_per_dim = 2;
  spec.campaign_seed = 42;
  spec.strategy = Strategy::Sf;
  spec.scenarios = {sim::FaultSpec::scenario("drop", 1),
                    sim::FaultSpec::scenario("babble", 1)};
  spec.jobs = jobs;
  return spec;
}

[[nodiscard]] std::uint64_t value(const MetricsSnapshot& snapshot, const std::string& name) {
  const auto it = snapshot.find(name);
  EXPECT_NE(it, snapshot.end()) << name;
  return it == snapshot.end() ? 0 : it->second.value;
}

/// The kernel counter's name: the specs' mcs_options() take the kernel
/// from MCS_KERNEL, so it names the kernel this environment selects.
[[nodiscard]] std::string kernel_jobs() {
  return std::string("kernel.jobs.") + core::kernel_name(core::kernel_from_env());
}

[[nodiscard]] std::string json_text(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  write_metrics_json(snapshot, out);
  return out.str();
}

TEST(MetricsTest, HistogramBucketsCountAndSum) {
  core::DeltaStats stats;
  for (const int iterations : {1, 2, 3, 4, 5, 16, 17}) stats.record_run(iterations);
  EXPECT_EQ(stats.runs_by_iterations[0], 1u);  // 1       (le 1)
  EXPECT_EQ(stats.runs_by_iterations[1], 1u);  // 2       (le 2)
  EXPECT_EQ(stats.runs_by_iterations[2], 1u);  // 3       (le 3)
  EXPECT_EQ(stats.runs_by_iterations[3], 1u);  // 4       (le 4)
  EXPECT_EQ(stats.runs_by_iterations[4], 1u);  // 5       (le 6)
  EXPECT_EQ(stats.runs_by_iterations[7], 1u);  // 16      (le 16)
  EXPECT_EQ(stats.runs_by_iterations[8], 1u);  // 17      (overflow)
  EXPECT_EQ(stats.iterations, 48u);

  // In a campaign the histogram counts every MCS run of every job: one
  // per full or delta run, plus the cold leg of each Check-mode run.
  const MetricsSnapshot snapshot = metrics_snapshot(run_campaign(campaign_spec(2)));
  const MetricValue& runs = snapshot.at("mcs.iterations_per_run");
  EXPECT_EQ(runs.kind, MetricValue::Kind::Histogram);
  ASSERT_EQ(runs.buckets.size(), core::kIterationBounds.size() + 1);
  EXPECT_GT(runs.count(), 0u);
  EXPECT_EQ(runs.count(), value(snapshot, "delta.delta_runs") +
                              value(snapshot, "delta.full_runs") +
                              value(snapshot, "delta.checked"));
  EXPECT_GE(runs.sum, runs.count());  // every run iterates at least once
}

TEST(MetricsTest, MergeSumsCountersAndKeepsTheGaugeMax) {
  const auto job = [](std::uint64_t count, std::uint64_t scratch, std::uint64_t runs) {
    return MetricsSnapshot{
        {"c", MetricValue::counter(count)},
        {"g", {MetricValue::Kind::Gauge, scratch, {}, 0}},
        {"h", {MetricValue::Kind::Histogram, 0, {runs, 0, 1}, 2 * runs + 3}}};
  };
  MetricsSnapshot total;
  merge(total, job(2, 700, 1));
  merge(total, job(5, 300, 4));
  merge(total, {{"only.later", MetricValue::counter(9)}});
  EXPECT_EQ(total.at("c").value, 7u);
  EXPECT_EQ(total.at("g").value, 700u);
  EXPECT_EQ(total.at("h").buckets, (std::vector<std::uint64_t>{5, 0, 2}));
  EXPECT_EQ(total.at("h").count(), 7u);
  EXPECT_EQ(total.at("h").sum, 16u);
  EXPECT_EQ(total.at("only.later").value, 9u);
}

// Every body writes an engine counter; job 1's body then throws.  The
// row states are counted, and the failed job's counter never reaches the
// totals.
TEST(MetricsTest, RuntimeCountersCountRowStates) {
  const CampaignSpec spec = campaign_spec(2);
  const JournalCodec<JobResult> codec{campaign_spec_digest(spec), encode_job_result,
                                      decode_job_result};
  const CampaignResult result = run_suite<CampaignResult>(
      spec, {}, "test.job", codec,
      [](const gen::GeneratedSystem&, JobResult& job, MetricsSnapshot& engine) {
        engine["test.bodies"] = MetricValue::counter(1);
        if (job.job_index == 1) throw std::runtime_error("job 1 fails");
      });
  const MetricsSnapshot snapshot = metrics_snapshot(result);
  ASSERT_EQ(result.count(RunState::Failed), 1u);
  EXPECT_EQ(value(snapshot, "runtime.jobs_done"), result.count(RunState::Done));
  EXPECT_EQ(value(snapshot, "runtime.jobs_done"), result.jobs.size() - 1);
  EXPECT_EQ(value(snapshot, "runtime.jobs_failed"), 1u);
  EXPECT_EQ(value(snapshot, "runtime.jobs_timeout"), 0u);
  EXPECT_EQ(value(snapshot, "test.bodies"), result.jobs.size() - 1);
}

TEST(MetricsTest, FaultCountersSumTheScenarios) {
  const ValidationResult result = run_validation(validation_spec(2));
  const MetricsSnapshot snapshot = metrics_snapshot(result);
  sim::FaultCounters sum;
  std::size_t scenarios = 0;
  for (const ValidationJob& job : result.jobs) {
    for (const ScenarioOutcome& s : job.scenarios) {
      ++scenarios;
      sum.can_frames_dropped += s.faults.can_frames_dropped;
      sum.can_messages_lost += s.faults.can_messages_lost;
      sum.can_frames_delayed += s.faults.can_frames_delayed;
      sum.ttp_frames_dropped += s.faults.ttp_frames_dropped;
      sum.ttp_messages_lost += s.faults.ttp_messages_lost;
      sum.babble_seizures += s.faults.babble_seizures;
      sum.tt_jitter_events += s.faults.tt_jitter_events;
      sum.gateway_jitter_events += s.faults.gateway_jitter_events;
      sum.exec_variations += s.faults.exec_variations;
    }
  }
  ASSERT_GT(scenarios, 0u);
  ASSERT_GT(sum.total(), 0);  // the scenarios injected something to compare
  for (const auto& [name, expected] :
       {std::pair{"can_frames_dropped", sum.can_frames_dropped},
        {"can_messages_lost", sum.can_messages_lost},
        {"can_frames_delayed", sum.can_frames_delayed},
        {"ttp_frames_dropped", sum.ttp_frames_dropped},
        {"ttp_messages_lost", sum.ttp_messages_lost},
        {"babble_seizures", sum.babble_seizures},
        {"tt_jitter_events", sum.tt_jitter_events},
        {"gateway_jitter_events", sum.gateway_jitter_events},
        {"exec_variations", sum.exec_variations}}) {
    EXPECT_EQ(value(snapshot, std::string("sim.faults.") + name),
              static_cast<std::uint64_t>(expected))
        << name;
  }
  EXPECT_EQ(value(snapshot, "runtime.jobs_done"), result.count(RunState::Done));
}

// Each job's counters are summed into the result on whichever worker ran
// it; the totals must equal the per-row report columns.
TEST(MetricsTest, CounterSumsAcrossThreads) {
  const CampaignResult result = run_campaign(campaign_spec(4));
  const MetricsSnapshot snapshot = metrics_snapshot(result);
  std::uint64_t replays = 0, annealing = 0;
  for (const JobResult& job : result.jobs) {
    ASSERT_EQ(job.state, RunState::Done) << job.error;
    replays += job.delta_replays;
    for (const StrategyOutcome& o : job.outcomes) {
      if (o.strategy == Strategy::Sas) annealing += static_cast<std::uint64_t>(o.evaluations);
    }
  }
  EXPECT_EQ(value(snapshot, "delta.components_skipped"), replays);
  EXPECT_EQ(value(snapshot, "sa.evaluations"), annealing);
  EXPECT_GT(annealing, 0u);
  EXPECT_EQ(value(snapshot, kernel_jobs()), result.jobs.size());
  EXPECT_GT(value(snapshot, "workspace.scratch_bytes_max"), 0u);
  EXPECT_EQ(json_text(snapshot), json_text(metrics_snapshot(run_campaign(campaign_spec(1)))));
}

TEST(MetricsTest, JournalCountersCountTheAppendedRecords) {
  const CampaignSpec spec = campaign_spec(2);
  EXPECT_EQ(metrics_snapshot(run_campaign(spec)).count("journal.appends"), 0u);

  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "mcs_metrics_test.journal";
  RunOptions options;
  options.journal_path = path.string();
  const CampaignResult result = run_campaign(spec, options);
  std::filesystem::remove(path);
  std::uint64_t bytes = 0;
  for (const JobResult& job : result.jobs) bytes += encode_job_result(job).size();
  const MetricsSnapshot snapshot = metrics_snapshot(result);
  EXPECT_EQ(value(snapshot, "journal.appends"), result.jobs.size());
  EXPECT_EQ(value(snapshot, "journal.bytes"), bytes);
}

TEST(MetricsTest, SnapshotIsSortedByName) {
  const std::string text = json_text(metrics_snapshot(run_campaign(campaign_spec(2))));
  std::vector<std::string> names;
  const std::string key = "{\"name\": \"";
  for (std::size_t at = text.find(key); at != std::string::npos;
       at = text.find(key, at + 1)) {
    const std::size_t begin = at + key.size();
    names.push_back(text.substr(begin, text.find('"', begin) - begin));
  }
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end())) << text;
  const std::vector<std::string> expected = {
      "delta.cand_cache_hits",    "delta.cand_cache_rebuilds",
      "delta.checked",            "delta.components_recomputed",
      "delta.components_skipped", "delta.delta_runs",
      "delta.elided_iterations",  "delta.fallbacks",
      "delta.full_runs",          "delta.intra_skips",
      "delta.iteration_skips",    "delta.mismatches",
      "delta.p1_process_skips",   kernel_jobs(),
      "mcs.iterations_per_run",   "runtime.jobs_done",
      "runtime.jobs_failed",      "runtime.jobs_timeout",
      "sa.evaluations",           "workspace.scratch_bytes_max"};
  EXPECT_EQ(names, expected) << text;
}

TEST(MetricsTest, JsonSnapshotIsValidJson) {
  for (const std::string& text :
       {json_text(metrics_snapshot(run_campaign(campaign_spec(2)))),
        json_text(metrics_snapshot(run_validation(validation_spec(2)))),
        json_text(MetricsSnapshot{})}) {
    EXPECT_TRUE(mcs::test::is_valid_json(text)) << text;
  }
  const std::string text = json_text(metrics_snapshot(run_campaign(campaign_spec(2))));
  EXPECT_NE(text.find("\"type\": \"counter\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"type\": \"gauge\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"type\": \"histogram\""), std::string::npos) << text;
  EXPECT_NE(text.find("{\"le\": 16, \"count\": "), std::string::npos) << text;
  EXPECT_NE(text.find("{\"le\": \"inf\", \"count\": "), std::string::npos) << text;
}

}  // namespace
}  // namespace mcs::exp
