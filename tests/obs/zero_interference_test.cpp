// The observability layer's acceptance contract (DESIGN.md §7): arming
// metrics and tracing must not change a single deterministic result bit,
// for any worker count — and the metrics a campaign publishes must
// themselves be bit-stable across worker counts.  The report signature
// contract rides along: one signature per kind across delta modes,
// worker counts and observability.
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "mcs/exp/campaign.hpp"
#include "mcs/exp/validation.hpp"
#include "mcs/obs/metrics.hpp"
#include "mcs/obs/trace.hpp"
#include "mcs/sim/fault.hpp"

#include "json_check.hpp"

namespace mcs::exp {
namespace {

CampaignSpec campaign_spec(std::size_t jobs) {
  CampaignSpec spec;
  spec.name = "obs-test";
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
  spec.name = "obs-test";
  spec.suite = "validation";
  spec.seeds_per_dim = 2;
  spec.campaign_seed = 42;
  spec.strategy = Strategy::Sf;
  spec.scenarios = {sim::FaultSpec::scenario("drop", 1)};
  spec.jobs = jobs;
  return spec;
}

/// Runs `body` with metrics + tracing armed; returns the trace JSON.
template <typename Fn>
std::string with_observability(Fn&& body) {
  obs::reset_metrics();
  obs::set_metrics_enabled(true);
  obs::start_tracing();
  body();
  obs::stop_tracing();
  obs::set_metrics_enabled(false);
  std::ostringstream out;
  obs::write_chrome_trace(out);
  return out.str();
}

/// Sets (or, for nullptr, unsets) an environment variable for one scope
/// and restores its previous state afterwards.
class ScopedEnv {
public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) old_ = old;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (old_) {
      ::setenv(name_, old_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

private:
  const char* name_;
  std::optional<std::string> old_;
};

[[nodiscard]] std::string metrics_json_text() {
  std::ostringstream out;
  obs::write_metrics_json(obs::snapshot_metrics(), out);
  return out.str();
}

// --- campaign ---------------------------------------------------------

TEST(ZeroInterference, CampaignSignatureUnchangedByObservability) {
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    const CampaignResult plain = run_campaign(campaign_spec(jobs));

    CampaignResult observed;
    const std::string trace = with_observability(
        [&] { observed = run_campaign(campaign_spec(jobs)); });

    EXPECT_EQ(plain.signature(), observed.signature()) << "jobs=" << jobs;
    ASSERT_EQ(plain.jobs.size(), observed.jobs.size());
    for (std::size_t ji = 0; ji < plain.jobs.size(); ++ji) {
      EXPECT_EQ(plain.jobs[ji].signature(), observed.jobs[ji].signature())
          << "jobs=" << jobs << " job " << ji;
      EXPECT_EQ(plain.jobs[ji].evals, observed.jobs[ji].evals);
      EXPECT_EQ(plain.jobs[ji].cache_hits, observed.jobs[ji].cache_hits);
      EXPECT_EQ(plain.jobs[ji].delta_fallbacks,
                observed.jobs[ji].delta_fallbacks);
    }
    EXPECT_TRUE(mcs::test::is_valid_json(trace)) << "jobs=" << jobs;
    EXPECT_GT(obs::trace_event_count(), 0u) << "jobs=" << jobs;
  }
}

TEST(ZeroInterference, CampaignMetricsSnapshotStableAcrossWorkerCounts) {
  with_observability([] { (void)run_campaign(campaign_spec(1)); });
  const std::string serial = metrics_json_text();

  with_observability([] { (void)run_campaign(campaign_spec(4)); });
  const std::string parallel = metrics_json_text();

  // Every published metric is a deterministic per-job total merged by
  // commutative addition, so the whole JSON document must match byte for
  // byte whatever the sharding.
  EXPECT_EQ(serial, parallel);
  EXPECT_TRUE(mcs::test::is_valid_json(serial));
  EXPECT_NE(serial.find("\"runtime.jobs_done\""), std::string::npos) << serial;
  EXPECT_NE(serial.find("\"sa.evaluations\""), std::string::npos) << serial;
}

// Per-job instrumentation fields are deterministic, so a rerun must
// reproduce them exactly, even though the signature leaves them out.
TEST(ZeroInterference, CampaignInstrumentationFieldsAreDeterministic) {
  const CampaignResult a = run_campaign(campaign_spec(2));
  const CampaignResult b = run_campaign(campaign_spec(2));
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  bool any_nonzero = false;
  for (std::size_t ji = 0; ji < a.jobs.size(); ++ji) {
    EXPECT_EQ(a.jobs[ji].evals, b.jobs[ji].evals) << "job " << ji;
    EXPECT_EQ(a.jobs[ji].cache_hits, b.jobs[ji].cache_hits) << "job " << ji;
    EXPECT_EQ(a.jobs[ji].cache_lookups, b.jobs[ji].cache_lookups)
        << "job " << ji;
    EXPECT_EQ(a.jobs[ji].delta_fallbacks, b.jobs[ji].delta_fallbacks)
        << "job " << ji;
    any_nonzero = any_nonzero || a.jobs[ji].evals > 0;
  }
  // The Os/Sas strategies evaluate many candidates; a campaign where every
  // evals field is zero means the plumbing is disconnected.
  EXPECT_TRUE(any_nonzero);
}

// --- signature contract ---------------------------------------------

// A report signature digests the paper outputs only (pipeline.hpp), so
// each kind has ONE signature across delta Off/On/Check x jobs {1, 4} x
// observability {off, on}.  The engine counters it leaves out do differ
// across those runs — no delta fallbacks under Off, some under On — so
// equal signatures prove the counters are excluded, not equal by chance.
TEST(ZeroInterference, SignatureIsInvariantAcrossDeltaModesJobsAndObservability) {
  struct DeltaEnv {
    const char* delta;
    const char* check;
  };
  const DeltaEnv on{nullptr, nullptr}, off{"0", nullptr}, check{nullptr, "1"};
  std::set<std::uint64_t> campaign_signatures, validation_signatures;
  for (const DeltaEnv* mode : {&on, &off, &check}) {
    const ScopedEnv delta("MCS_DELTA", mode->delta);
    const ScopedEnv delta_check("MCS_DELTA_CHECK", mode->check);
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
      for (const bool observed : {false, true}) {
        CampaignResult campaign;
        ValidationResult validation;
        const auto run = [&] {
          campaign = run_campaign(campaign_spec(jobs));
          validation = run_validation(validation_spec(jobs));
        };
        if (observed) {
          (void)with_observability(run);
        } else {
          run();
        }
        campaign_signatures.insert(campaign.signature());
        validation_signatures.insert(validation.signature());

        // A zero sum of the unsigned counters means zero on every job.
        std::uint64_t campaign_fallbacks = 0;
        for (const JobResult& job : campaign.jobs) campaign_fallbacks += job.delta_fallbacks;
        std::uint64_t all_fallbacks = campaign_fallbacks;
        for (const ValidationJob& job : validation.jobs) all_fallbacks += job.delta_fallbacks;
        if (mode == &off) {
          EXPECT_EQ(all_fallbacks, 0u) << "jobs=" << jobs;
        } else if (mode == &on) {
          EXPECT_GT(campaign_fallbacks, 0u) << "jobs=" << jobs;
        }
      }
    }
  }
  EXPECT_EQ(campaign_signatures.size(), 1u);
  EXPECT_EQ(validation_signatures.size(), 1u);
}

// --- validation -------------------------------------------------------

TEST(ZeroInterference, ValidationSignatureUnchangedByObservability) {
  for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    const ValidationResult plain = run_validation(validation_spec(jobs));

    ValidationResult observed;
    const std::string trace = with_observability(
        [&] { observed = run_validation(validation_spec(jobs)); });

    EXPECT_EQ(plain.signature(), observed.signature()) << "jobs=" << jobs;
    ASSERT_EQ(plain.jobs.size(), observed.jobs.size());
    for (std::size_t ji = 0; ji < plain.jobs.size(); ++ji) {
      EXPECT_EQ(plain.jobs[ji].signature(), observed.jobs[ji].signature())
          << "jobs=" << jobs << " job " << ji;
    }
    EXPECT_TRUE(mcs::test::is_valid_json(trace)) << "jobs=" << jobs;
  }
}

TEST(ZeroInterference, ValidationMetricsSnapshotStableAcrossWorkerCounts) {
  with_observability([] { (void)run_validation(validation_spec(1)); });
  const std::string serial = metrics_json_text();

  with_observability([] { (void)run_validation(validation_spec(4)); });
  const std::string parallel = metrics_json_text();

  EXPECT_EQ(serial, parallel);
  EXPECT_TRUE(mcs::test::is_valid_json(serial));
  // The fault sweep publishes simulator degradation counters.
  EXPECT_NE(serial.find("\"sim.faults."), std::string::npos) << serial;
}

// Trace structure (names x counts) is keyed off deterministic counters,
// so two traced runs of the same campaign record the same event multiset.
TEST(ZeroInterference, TraceEventCountIsReproducible) {
  with_observability([] { (void)run_campaign(campaign_spec(1)); });
  const std::size_t first = obs::trace_event_count();

  with_observability([] { (void)run_campaign(campaign_spec(1)); });
  const std::size_t second = obs::trace_event_count();

  EXPECT_EQ(first, second);
  EXPECT_GT(first, 0u);
}

}  // namespace
}  // namespace mcs::exp
