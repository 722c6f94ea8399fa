#include "mcs/exp/campaign.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

#include "mcs/exp/validation.hpp"
#include "mcs/sim/fault.hpp"

namespace mcs::exp {
namespace {

CampaignSpec tiny_spec(std::size_t jobs) {
  CampaignSpec spec;
  spec.name = "test";
  spec.suite = "tiny";
  spec.seeds_per_dim = 2;
  spec.suite_base_seed = 500;
  spec.campaign_seed = 42;
  spec.strategies = {Strategy::Sf, Strategy::Os, Strategy::Sas};
  spec.budgets.sa_max_evaluations = 60;
  spec.jobs = jobs;
  return spec;
}

void expect_outcome_eq(const StrategyOutcome& a, const StrategyOutcome& b,
                       std::size_t job, std::size_t si) {
  EXPECT_EQ(a.strategy, b.strategy) << "job " << job << " strategy " << si;
  EXPECT_EQ(a.schedulable, b.schedulable) << "job " << job << " strategy " << si;
  EXPECT_EQ(a.skipped, b.skipped) << "job " << job << " strategy " << si;
  EXPECT_EQ(a.delta.f1, b.delta.f1) << "job " << job << " strategy " << si;
  EXPECT_EQ(a.delta.f2, b.delta.f2) << "job " << job << " strategy " << si;
  EXPECT_EQ(a.s_total, b.s_total) << "job " << job << " strategy " << si;
  EXPECT_EQ(a.s_total_before, b.s_total_before) << "job " << job << " strategy "
                                                << si;
  EXPECT_EQ(a.evaluations, b.evaluations) << "job " << job << " strategy " << si;
}

// The acceptance property of the engine: every deterministic per-job field
// — and therefore every aggregate computed from them — is bit-identical
// regardless of how many worker threads the campaign is sharded over.
TEST(Campaign, ResultsAreBitIdenticalAcrossThreadCounts) {
  const CampaignResult serial = run_campaign(tiny_spec(1));
  const CampaignResult parallel = run_campaign(tiny_spec(4));

  ASSERT_EQ(serial.jobs.size(), parallel.jobs.size());
  ASSERT_GT(serial.jobs.size(), 0u);
  EXPECT_EQ(parallel.workers, 4u);

  for (std::size_t ji = 0; ji < serial.jobs.size(); ++ji) {
    const JobResult& a = serial.jobs[ji];
    const JobResult& b = parallel.jobs[ji];
    EXPECT_EQ(a.job_index, b.job_index);
    EXPECT_EQ(a.dimension, b.dimension);
    EXPECT_EQ(a.replica, b.replica);
    EXPECT_EQ(a.system_seed, b.system_seed);
    EXPECT_EQ(a.processes, b.processes);
    EXPECT_EQ(a.messages, b.messages);
    EXPECT_EQ(a.inter_cluster_messages, b.inter_cluster_messages);
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (std::size_t si = 0; si < a.outcomes.size(); ++si) {
      expect_outcome_eq(a.outcomes[si], b.outcomes[si], ji, si);
    }
    EXPECT_EQ(a.signature(), b.signature()) << "job " << ji;
  }
  EXPECT_EQ(serial.signature(), parallel.signature());

  // Aggregates are a pure function of the deterministic fields.
  EXPECT_EQ(serial.summary_table().to_string(),
            parallel.summary_table().to_string());

  // The CSV report contains per-strategy wall-clock columns; everything
  // before them must agree line by line.
  std::ostringstream csv_a, csv_b;
  write_csv(serial, csv_a);
  write_csv(parallel, csv_b);
  std::istringstream lines_a(csv_a.str()), lines_b(csv_b.str());
  std::string line_a, line_b;
  while (std::getline(lines_a, line_a) && std::getline(lines_b, line_b)) {
    EXPECT_EQ(line_a.substr(0, line_a.rfind(',')),
              line_b.substr(0, line_b.rfind(',')));
  }
}

TEST(Campaign, RerunWithSameSpecIsReproducible) {
  const CampaignResult a = run_campaign(tiny_spec(2));
  const CampaignResult b = run_campaign(tiny_spec(2));
  EXPECT_EQ(a.signature(), b.signature());
}

TEST(Campaign, DerivedSeedsAreIndependentStreams) {
  const std::uint64_t s = derive_seed(1, 0, 0);
  EXPECT_NE(s, derive_seed(1, 0, 1));  // strategy index matters
  EXPECT_NE(s, derive_seed(1, 1, 0));  // job index matters
  EXPECT_NE(s, derive_seed(2, 0, 0));  // campaign seed matters
  EXPECT_EQ(s, derive_seed(1, 0, 0));  // and the function is pure
}

TEST(Campaign, JobsCoverTheSuiteInOrder) {
  const CampaignResult result = run_campaign(tiny_spec(3));
  const auto suite = gen::suite_by_name("tiny", 2, 500);
  ASSERT_EQ(result.jobs.size(), suite.size());
  for (std::size_t i = 0; i < suite.size(); ++i) {
    EXPECT_EQ(result.jobs[i].job_index, i);
    EXPECT_EQ(result.jobs[i].dimension, suite[i].dimension);
    EXPECT_EQ(result.jobs[i].replica, suite[i].replica);
    EXPECT_EQ(result.jobs[i].system_seed, suite[i].params.seed);
    EXPECT_EQ(result.jobs[i].outcomes.size(), 3u);
  }
}

TEST(Campaign, AnnealingSkipFollowsPriorSchedulability) {
  CampaignSpec spec = tiny_spec(2);
  spec.strategies = {Strategy::Sf, Strategy::Sas};
  spec.anneal_unschedulable_starts = false;
  const CampaignResult result = run_campaign(spec);
  for (const JobResult& job : result.jobs) {
    ASSERT_EQ(job.outcomes.size(), 2u);
    const StrategyOutcome& sas = job.outcomes[1];
    if (job.outcomes[0].schedulable) {
      EXPECT_FALSE(sas.skipped);
      EXPECT_GT(sas.evaluations, 0);
    } else {
      EXPECT_TRUE(sas.skipped);
      EXPECT_EQ(sas.evaluations, 0);
      EXPECT_FALSE(sas.schedulable);
    }
  }
}

TEST(Campaign, OrStrategyRecordsOsStepBuffers) {
  CampaignSpec spec = tiny_spec(2);
  spec.strategies = {Strategy::Or};
  const CampaignResult result = run_campaign(spec);
  for (const JobResult& job : result.jobs) {
    ASSERT_EQ(job.outcomes.size(), 1u);
    if (job.outcomes[0].schedulable) {
      // OR can only shrink its internal OS step's buffer need.
      EXPECT_LE(job.outcomes[0].s_total, job.outcomes[0].s_total_before);
      EXPECT_GT(job.outcomes[0].s_total_before, 0);
    }
  }
}

TEST(Campaign, OrAfterOsMatchesOrAlone) {
  // OR reuses the job's OS result as its step 1; the outcome must be the
  // one OR computes on its own, evaluation count included.
  CampaignSpec with_os = tiny_spec(2);
  with_os.strategies = {Strategy::Sf, Strategy::Os, Strategy::Or};
  CampaignSpec alone = tiny_spec(2);
  alone.strategies = {Strategy::Sf, Strategy::Or};
  const CampaignResult a = run_campaign(with_os);
  const CampaignResult b = run_campaign(alone);
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (std::size_t j = 0; j < a.jobs.size(); ++j) {
    ASSERT_EQ(a.jobs[j].outcomes.size(), 3u);
    ASSERT_EQ(b.jobs[j].outcomes.size(), 2u);
    expect_outcome_eq(a.jobs[j].outcomes[2], b.jobs[j].outcomes[1], j, 2);
  }
}

TEST(CampaignSpecParser, ParsesEveryKey) {
  std::istringstream in(R"(# a comment
name = my-campaign
suite = fig9c          # trailing comment
seeds_per_dim = 7
suite_base_seed = 9000
campaign_seed = 99
strategies = or, sar
conservative = true
paper_ttp = true
jobs = 8
sa_max_evaluations = 123
hopa_iterations = 5
or_max_seed_starts = 2
or_max_climb_iterations = 11
or_neighbors_per_step = 24
)");
  const CampaignSpec spec = parse_campaign_spec(in);
  EXPECT_EQ(spec.name, "my-campaign");
  EXPECT_EQ(spec.suite, "fig9c");
  EXPECT_EQ(spec.seeds_per_dim, 7u);
  EXPECT_EQ(spec.suite_base_seed, 9000u);
  EXPECT_EQ(spec.campaign_seed, 99u);
  ASSERT_EQ(spec.strategies.size(), 2u);
  EXPECT_EQ(spec.strategies[0], Strategy::Or);
  EXPECT_EQ(spec.strategies[1], Strategy::Sar);
  EXPECT_TRUE(spec.conservative);
  EXPECT_TRUE(spec.paper_ttp);
  EXPECT_EQ(spec.jobs, 8u);
  EXPECT_EQ(spec.budgets.sa_max_evaluations, 123);
  EXPECT_EQ(spec.budgets.hopa_iterations, 5);
  EXPECT_EQ(spec.budgets.or_max_seed_starts, 2u);
  EXPECT_EQ(spec.budgets.or_max_climb_iterations, 11);
  EXPECT_EQ(spec.budgets.or_neighbors_per_step, 24u);

  const core::McsOptions options = spec.mcs_options();
  EXPECT_FALSE(options.analysis.offset_pruning);
  EXPECT_EQ(options.analysis.ttp_queue_model, core::TtpQueueModel::PaperFormula);
}

TEST(CampaignSpecParser, RejectsUnknownKeysAndBadValues) {
  std::istringstream unknown("nonsense = 1\n");
  EXPECT_THROW(static_cast<void>(parse_campaign_spec(unknown)),
               std::invalid_argument);
  std::istringstream no_eq("just some words\n");
  EXPECT_THROW(static_cast<void>(parse_campaign_spec(no_eq)),
               std::invalid_argument);
  std::istringstream bad_strategy("strategies = sf, bogus\n");
  EXPECT_THROW(static_cast<void>(parse_campaign_spec(bad_strategy)),
               std::invalid_argument);
  std::istringstream bad_bool("conservative = maybe\n");
  EXPECT_THROW(static_cast<void>(parse_campaign_spec(bad_bool)),
               std::invalid_argument);
  // Numbers must not silently wrap: negatives, trailing garbage and
  // int-overflowing budgets are all parse errors.
  std::istringstream negative("jobs = -2\n");
  EXPECT_THROW(static_cast<void>(parse_campaign_spec(negative)),
               std::invalid_argument);
  std::istringstream trailing("seeds_per_dim = 3x\n");
  EXPECT_THROW(static_cast<void>(parse_campaign_spec(trailing)),
               std::invalid_argument);
  std::istringstream overflow("sa_max_evaluations = 5000000000\n");
  EXPECT_THROW(static_cast<void>(parse_campaign_spec(overflow)),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(run_campaign([] {
                 CampaignSpec s;
                 s.suite = "no-such-suite";
                 return s;
               }())),
               std::invalid_argument);
}

/// Parses `text` as a campaign or a validation spec.
void parse_spec_text(const std::string& text, bool campaign) {
  std::istringstream in(text);
  if (campaign) {
    (void)parse_campaign_spec(in);
  } else {
    (void)parse_validation_spec(in);
  }
}

/// Expects both spec kinds to refuse `text` with an error naming `key`
/// and line 2.
void expect_line_2_error(const std::string& text, const char* key) {
  for (const bool campaign : {true, false}) {
    try {
      parse_spec_text(text, campaign);
      ADD_FAILURE() << text << " was accepted";
    } catch (const std::invalid_argument& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("line 2"), std::string::npos) << message;
      EXPECT_NE(message.find(key), std::string::npos) << message;
    }
  }
}

// The retired retry and admission-shedding keys are unknown keys now: an
// old spec holding one fails loudly with its line number instead of being
// silently ignored.
TEST(CampaignSpecParser, RejectsRetiredRuntimeKeys) {
  for (const char* key : {"max_retries", "queue_limit"}) {
    expect_line_2_error(std::string("name = old\n") + key + " = 2\n", key);
  }
}

// Jobs are bounded by their budgets, not by a wall-clock deadline: the
// retired job_timeout_ms key still parses at its old default 0 (off), and
// any deadline it would arm is a line-numbered error naming the key.
TEST(CampaignSpecParser, AcceptsJobTimeoutMsOnlyAtZero) {
  for (const bool campaign : {true, false}) {
    EXPECT_NO_THROW(parse_spec_text("name = old\njob_timeout_ms = 0\n", campaign));
  }
  for (const char* value : {"1", "60000"}) {
    expect_line_2_error(std::string("name = old\njob_timeout_ms = ") + value + "\n",
                        "job_timeout_ms");
  }
}

// The shipped spec files (Figure 9 campaigns, soundness sweeps, fault
// scenarios) are data no program compiles; parsing each one, and
// resolving its suite, keeps them from rotting when a key changes.
TEST(CampaignSpecParser, ExampleSpecsParse) {
  namespace fs = std::filesystem;
  const fs::path examples = fs::path(MCS_TEST_DATA_DIR) / ".." / ".." / "examples";
  std::size_t campaigns = 0, validations = 0, faults = 0;
  for (const fs::directory_entry& entry : fs::directory_iterator(examples)) {
    const std::string path = entry.path().string();
    const std::string ext = entry.path().extension().string();
    SCOPED_TRACE(path);
    if (ext == ".campaign") {
      const CampaignSpec spec = parse_campaign_spec_file(path);
      EXPECT_FALSE(
          gen::suite_by_name(spec.suite, spec.seeds_per_dim, spec.suite_base_seed)
              .empty());
      ++campaigns;
    } else if (ext == ".validation") {
      const ValidationSpec spec = parse_validation_spec_file(path);
      EXPECT_FALSE(
          gen::suite_by_name(spec.suite, spec.seeds_per_dim, spec.suite_base_seed)
              .empty());
      ++validations;
    } else if (ext == ".faults") {
      (void)sim::parse_fault_spec_file(path);
      ++faults;
    }
  }
  EXPECT_GE(campaigns, 1u);
  EXPECT_GE(validations, 1u);
  EXPECT_GE(faults, 1u);
}

TEST(CampaignReports, JsonAndCsvContainEveryJob) {
  const CampaignResult result = run_campaign(tiny_spec(2));
  std::ostringstream json;
  write_json(result, json);
  const std::string j = json.str();
  EXPECT_NE(j.find("\"campaign\": \"test\""), std::string::npos);
  EXPECT_NE(j.find("\"suite\": \"tiny\""), std::string::npos);
  EXPECT_NE(j.find("\"runtime_percentiles\""), std::string::npos);
  EXPECT_NE(j.find("\"signature\""), std::string::npos);
  for (const JobResult& job : result.jobs) {
    EXPECT_NE(j.find("\"system_seed\": " + std::to_string(job.system_seed)),
              std::string::npos);
  }

  std::ostringstream csv;
  write_csv(result, csv);
  std::istringstream lines(csv.str());
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) ++count;
  // Header + one line per (job, strategy).
  EXPECT_EQ(count, 1 + result.jobs.size() * result.spec.strategies.size());
}

}  // namespace
}  // namespace mcs::exp
