// Parallel campaign engine — the paper's §6 evaluation as a declarative,
// thread-pooled sweep.
//
// A campaign is "suite × strategies × seeds": a generator suite (the
// Figure 9 grids or the tiny smoke grid) enumerates system instances, and
// every instance is one JOB that runs the requested strategies in order
// (SF, OS, OR, and the annealing references SAS/SAR) and records their
// verdict, degree of schedulability, buffer need and run time.  Jobs are
// sharded across a util::ThreadPool and aggregated into per-dimension
// series (schedulable fraction, deviation from the annealing reference,
// delta/s_total averages) plus campaign-wide runtime percentiles, written
// as a plain-text table, JSON and CSV.
//
// Concurrency & determinism contract (DESIGN.md §4):
//
//   * Each job builds its OWN core::MoveContext — and therefore its own
//     AnalysisWorkspace — on the worker thread that runs it.  Those
//     objects are mutable and single-threaded by design and are NEVER
//     shared across jobs or threads.
//   * Every stochastic component inside a job draws from a seed derived
//     as FNV-1a(campaign_seed, job_index, strategy_index) — a pure
//     function of the spec, independent of scheduling order.
//   * Jobs write into preassigned result slots (results[job_index]).
//
// Together these make every deterministic field of the result — everything
// except wall-clock times — bit-identical for any `jobs` value, which
// tests/exp/campaign_test.cpp asserts (jobs=1 vs jobs=4).
// CampaignResult::signature() digests the paper outputs among them
// (pipeline.hpp).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "mcs/core/degree_of_schedulability.hpp"
#include "mcs/exp/pipeline.hpp"
#include "mcs/gen/suites.hpp"
#include "mcs/util/table.hpp"

namespace mcs::exp {

/// Declarative description of one campaign: the SpecBase keys plus the
/// strategy list and the annealing-skip switch.
struct CampaignSpec : SpecBase {
  CampaignSpec()
      : SpecBase{.name = "campaign", .suite = "tiny", .seeds_per_dim = 2,
                 .suite_base_seed = 1000} {}

  std::vector<Strategy> strategies = {Strategy::Sf, Strategy::Os, Strategy::Sas};
  /// When false, SAS/SAR is skipped (outcome.skipped = true) on jobs
  /// whose preceding strategy was unschedulable — the setting of
  /// examples/fig9b.campaign and fig9c.campaign, saving the full SA
  /// budget on hopeless instances.
  /// The skip decision reads only deterministic fields, so thread-count
  /// invariance is preserved.
  bool anneal_unschedulable_starts = true;
};

/// Parses the line-based `key = value` spec format ('#' starts a comment):
///
///   name       = fig9a-repro        suite          = fig9ab
///   seeds_per_dim = 10              suite_base_seed = 1000
///   campaign_seed = 1               strategies     = sf, os, sas
///   jobs       = 4                  conservative   = false
///   paper_ttp  = false              sa_max_evaluations = 250
///   hopa_iterations = 3             or_max_seed_starts = 3
///   or_max_climb_iterations = 10    or_neighbors_per_step = 16
///
/// Unknown keys throw std::invalid_argument with the line number.
[[nodiscard]] CampaignSpec parse_campaign_spec(std::istream& in);
[[nodiscard]] CampaignSpec parse_campaign_spec_file(const std::string& path);

/// One strategy's outcome on one instance.  `evaluations` and `seconds`
/// are reported but not signed.
struct StrategyOutcome {
  Strategy strategy = Strategy::Sf;
  bool schedulable = false;
  /// True when the strategy did not run (annealing on an unschedulable
  /// start with anneal_unschedulable_starts = false); all other fields
  /// are zero then.
  bool skipped = false;
  core::Schedulability delta;
  std::int64_t s_total = 0;
  /// OR only: the buffer need after its internal OS step (the paper's
  /// Figure 9b/9c "OS" series without paying for a second OS run).
  std::int64_t s_total_before = 0;
  int evaluations = 0;
  double seconds = 0.0;
};

/// One instance: the generated system plus every strategy outcome.
struct JobResult : JobRow {
  std::size_t inter_cluster_messages = 0;
  std::vector<StrategyOutcome> outcomes;

  /// FNV-1a over the paper outputs: job, system seed, state and per
  /// outcome the strategy, verdict, skip flag, Δ(f1,f2), s_total and
  /// s_total_before.
  [[nodiscard]] std::uint64_t signature() const;
};

struct CampaignResult : SuiteResult<CampaignSpec, JobResult> {
  /// Per-dimension summary table: instances, and per strategy the
  /// schedulable count, average delta and s_total over schedulable
  /// instances, and average % deviation of delta (or s_total for
  /// OR/SAR-style buffer campaigns) from the last annealing strategy.
  [[nodiscard]] util::Table summary_table() const;
};

/// Runs the campaign on `spec.jobs` worker threads.  Results are
/// bit-identical (per JobResult::signature) for any thread count.
[[nodiscard]] CampaignResult run_campaign(const CampaignSpec& spec,
                                          const RunOptions& options = {});

/// Digest of the kind tag "campaign" and every spec field that determines
/// which results a campaign produces (suite, seeds, strategies, budgets,
/// watchdog deadline — NOT `name` or `jobs`).  Stamped into journal
/// headers so --resume refuses a journal written under a different spec.
[[nodiscard]] std::uint64_t campaign_spec_digest(const CampaignSpec& spec);

/// Journal payload codec for one JobResult (exposed for tests and
/// tooling; decode throws JournalError on malformed payloads).
[[nodiscard]] std::string encode_job_result(const JobResult& job);
[[nodiscard]] JobResult decode_job_result(const std::string& payload);

/// Machine-readable reports next to the summary table.
void write_json(const CampaignResult& result, std::ostream& out);
void write_csv(const CampaignResult& result, std::ostream& out);
/// The --metrics snapshot (metrics.hpp): the suite metrics plus
/// sa.evaluations, the evaluations of every annealing outcome that ran.
[[nodiscard]] MetricsSnapshot metrics_snapshot(const CampaignResult& result);

/// The seed the campaign hands a stochastic strategy in a given job —
/// FNV-1a(campaign_seed, job_index, strategy_index).  Exposed so tests
/// can assert stream independence.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t campaign_seed,
                                        std::size_t job_index,
                                        std::size_t strategy_index);

}  // namespace mcs::exp
