// Validation-campaign engine tests: thread-count bit-identity (including
// the fault-scenario outcomes), the 200-system fault-free soundness sweep
// (the acceptance criterion: zero analytic-bound violations), graceful
// degradation of failing and over-budget jobs into report rows, and the
// spec parser's error reporting.
#include "mcs/exp/validation.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace mcs::exp {
namespace {

ValidationSpec small_spec(std::size_t jobs) {
  ValidationSpec spec;
  spec.name = "test";
  spec.suite = "validation";
  spec.seeds_per_dim = 3;  // 6 systems
  spec.campaign_seed = 42;
  spec.strategy = Strategy::Sf;
  spec.scenarios = {sim::FaultSpec::scenario("drop", 1),
                    sim::FaultSpec::scenario("storm", 1)};
  spec.jobs = jobs;
  return spec;
}

void expect_scenario_eq(const ScenarioOutcome& a, const ScenarioOutcome& b,
                        std::size_t job, std::size_t si) {
  EXPECT_EQ(a.scenario, b.scenario) << "job " << job << " scenario " << si;
  EXPECT_EQ(a.sim_status, b.sim_status) << "job " << job << " scenario " << si;
  EXPECT_EQ(a.deadline_misses, b.deadline_misses)
      << "job " << job << " scenario " << si;
  EXPECT_EQ(a.messages_lost, b.messages_lost)
      << "job " << job << " scenario " << si;
  EXPECT_EQ(a.faults.total(), b.faults.total())
      << "job " << job << " scenario " << si;
  EXPECT_EQ(a.max_out_can, b.max_out_can) << "job " << job << " scenario " << si;
  EXPECT_EQ(a.max_out_ttp, b.max_out_ttp) << "job " << job << " scenario " << si;
  EXPECT_EQ(a.queue_over_bound, b.queue_over_bound)
      << "job " << job << " scenario " << si;
  EXPECT_EQ(a.worst_lateness, b.worst_lateness)
      << "job " << job << " scenario " << si;
}

// The engine's determinism contract: every deterministic field — the
// soundness verdicts AND the faulted degradation statistics — is
// bit-identical for any worker count.
TEST(Validation, ResultsAreBitIdenticalAcrossThreadCounts) {
  const ValidationResult serial = run_validation(small_spec(1));
  const ValidationResult parallel = run_validation(small_spec(4));

  ASSERT_EQ(serial.jobs.size(), parallel.jobs.size());
  ASSERT_GT(serial.jobs.size(), 0u);
  EXPECT_EQ(parallel.workers, 4u);

  for (std::size_t ji = 0; ji < serial.jobs.size(); ++ji) {
    const ValidationJob& a = serial.jobs[ji];
    const ValidationJob& b = parallel.jobs[ji];
    EXPECT_EQ(a.job_index, b.job_index);
    EXPECT_EQ(a.system_seed, b.system_seed);
    EXPECT_EQ(a.state, b.state);
    EXPECT_EQ(a.error, b.error);
    EXPECT_EQ(a.converged, b.converged);
    EXPECT_EQ(a.schedulable, b.schedulable);
    EXPECT_EQ(a.bounds_checked, b.bounds_checked);
    EXPECT_EQ(a.skip_reason, b.skip_reason);
    EXPECT_EQ(a.violations.size(), b.violations.size());
    ASSERT_EQ(a.scenarios.size(), b.scenarios.size());
    for (std::size_t si = 0; si < a.scenarios.size(); ++si) {
      expect_scenario_eq(a.scenarios[si], b.scenarios[si], ji, si);
    }
    EXPECT_EQ(a.signature(), b.signature()) << "job " << ji;
  }
  EXPECT_EQ(serial.signature(), parallel.signature());
  EXPECT_EQ(serial.summary_table().to_string(),
            parallel.summary_table().to_string());
}

TEST(Validation, RerunWithSameSpecIsReproducible) {
  const ValidationResult a = run_validation(small_spec(2));
  const ValidationResult b = run_validation(small_spec(2));
  EXPECT_EQ(a.signature(), b.signature());
}

// The acceptance sweep: 200 random systems simulated fault-free under
// WCET execution must produce ZERO analytic-bound violations.  Any
// violation this finds is a soundness bug in the analysis — the failure
// message carries the replayable system seed.
TEST(Validation, FaultFreeSoundnessSweepOver200Systems) {
  ValidationSpec spec;
  spec.suite = "validation";
  spec.seeds_per_dim = 100;  // 2 dimensions x 100 seeds
  spec.strategy = Strategy::Sf;
  spec.scenarios.clear();  // fault-free soundness only
  spec.jobs = 0;
  const ValidationResult result = run_validation(spec);

  ASSERT_EQ(result.jobs.size(), 200u);
  EXPECT_EQ(result.count(RunState::Failed), 0u);
  std::size_t checked = 0;
  for (const ValidationJob& job : result.jobs) {
    if (job.bounds_checked) ++checked;
    for (const sim::BoundViolation& v : job.violations) {
      ADD_FAILURE() << "SOUNDNESS BUG: " << v.activity << " simulated "
                    << v.simulated << " > bound " << v.bound
                    << " (suite validation, system_seed " << job.system_seed
                    << ", strategy sf)";
    }
  }
  EXPECT_EQ(result.total_violations(), 0u);
  // The sweep must actually exercise the checker on most instances.
  EXPECT_GT(checked, result.jobs.size() / 2);
}

// Graceful degradation 1: an exception inside a job (here: an invalid
// fault probability rejected by the injector) becomes a `failed` report
// row with the captured message — the campaign itself never throws and
// the other fields still identify the instance.
TEST(Validation, ExceptionsBecomeFailedRowsNotAborts) {
  ValidationSpec spec = small_spec(2);
  sim::FaultSpec bad;
  bad.name = "bad";
  bad.can_drop_p = 2.0;  // out of range: FaultInjector rejects it
  spec.scenarios = {bad};
  const ValidationResult result = run_validation(spec);

  ASSERT_GT(result.count(RunState::Failed), 0u);
  for (const ValidationJob& job : result.jobs) {
    if (job.state != RunState::Failed) continue;
    EXPECT_FALSE(job.error.empty());
    EXPECT_GT(job.system_seed, 0u);  // still attributable and replayable
    EXPECT_TRUE(job.scenarios.empty());
  }
  // Failure capture is deterministic too.
  EXPECT_EQ(result.signature(), run_validation(spec).signature());
}

// Graceful degradation 2: exhausting the per-simulation event budget is a
// deterministic `timeout` row (not a wall-clock race, not an abort).
TEST(Validation, EventBudgetExhaustionBecomesTimeoutRows) {
  ValidationSpec spec = small_spec(1);
  spec.scenarios.clear();
  spec.max_sim_events = 1;
  const ValidationResult result = run_validation(spec);

  ASSERT_GT(result.count(RunState::Timeout), 0u);
  for (const ValidationJob& job : result.jobs) {
    if (job.state != RunState::Timeout) continue;
    EXPECT_FALSE(job.bounds_checked);
    EXPECT_NE(job.skip_reason.find("event budget"), std::string::npos);
  }
}

TEST(ValidationSpecParser, ParsesEveryKey) {
  std::istringstream in(R"(# soundness campaign
name = my-validation
suite = validation
seeds_per_dim = 9
suite_base_seed = 7100
campaign_seed = 5
strategy = os
conservative = true
paper_ttp = true
scenarios = drop, babble, storm
max_sim_events = 12345
jobs = 3
hopa_iterations = 4
or_max_seed_starts = 2
or_max_climb_iterations = 7
or_neighbors_per_step = 8
)");
  const ValidationSpec spec = parse_validation_spec(in);
  EXPECT_EQ(spec.name, "my-validation");
  EXPECT_EQ(spec.suite, "validation");
  EXPECT_EQ(spec.seeds_per_dim, 9u);
  EXPECT_EQ(spec.suite_base_seed, 7100u);
  EXPECT_EQ(spec.campaign_seed, 5u);
  EXPECT_EQ(spec.strategy, Strategy::Os);
  EXPECT_TRUE(spec.conservative);
  EXPECT_TRUE(spec.paper_ttp);
  ASSERT_EQ(spec.scenarios.size(), 3u);
  EXPECT_EQ(spec.scenarios[0].name, "drop");
  EXPECT_EQ(spec.scenarios[2].name, "storm");
  EXPECT_EQ(spec.max_sim_events, 12345);
  EXPECT_EQ(spec.jobs, 3u);
  EXPECT_EQ(spec.budgets.hopa_iterations, 4);
}

TEST(ValidationSpecParser, RejectsMalformedInputWithLineNumbers) {
  const auto message_of = [](const std::string& text) {
    std::istringstream in(text);
    try {
      static_cast<void>(parse_validation_spec(in));
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("<no error>");
  };

  EXPECT_NE(message_of("name = x\nnonsense = 1\n").find("line 2"),
            std::string::npos);
  // The annealing strategies need a start candidate; a validation spec
  // naming one is a configuration error, not a silent fallback.
  EXPECT_NE(message_of("strategy = sas\n").find("line 1"), std::string::npos);
  EXPECT_NE(message_of("strategy = bogus\n").find("line 1"), std::string::npos);
  EXPECT_NE(message_of("scenarios = drop, no-such\n").find("line 1"),
            std::string::npos);
  EXPECT_NE(message_of("seeds_per_dim = -3\n").find("line 1"), std::string::npos);
  EXPECT_NE(message_of("# nothing here\n").find("no 'key = value'"),
            std::string::npos);
}

TEST(ValidationReports, JsonAndCsvCoverEveryJobAndScenario) {
  const ValidationResult result = run_validation(small_spec(2));
  std::ostringstream json;
  write_json(result, json);
  const std::string j = json.str();
  EXPECT_NE(j.find("\"validation\": \"test\""), std::string::npos);
  EXPECT_NE(j.find("\"totals\""), std::string::npos);
  EXPECT_NE(j.find("\"signature\""), std::string::npos);
  EXPECT_NE(j.find("\"scenario\": \"storm\""), std::string::npos);
  for (const ValidationJob& job : result.jobs) {
    EXPECT_NE(j.find("\"system_seed\": " + std::to_string(job.system_seed)),
              std::string::npos);
  }

  std::ostringstream csv;
  write_csv(result, csv);
  std::istringstream lines(csv.str());
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) ++count;
  std::size_t expected = 1;  // header
  for (const ValidationJob& job : result.jobs) {
    expected += 1 + job.scenarios.size();  // nominal row + scenario rows
  }
  EXPECT_EQ(count, expected);
}

}  // namespace
}  // namespace mcs::exp
