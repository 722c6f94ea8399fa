// Campaign-scale soundness fuzzing and fault-tolerance sweeps.
//
// A validation campaign turns the discrete-event simulator into a
// standing adversarial validator of the analysis (DESIGN.md §5): for
// every system of a generator suite it
//
//   1. synthesizes a configuration with one strategy (SF/OS/OR),
//   2. simulates it fault-free under WCET execution and asserts
//      `simulated <= analytic bound` for every process completion,
//      message delivery, graph response and queue maximum — any
//      exceedance is a soundness BUG in the analysis and is reported
//      with the replayable (suite, system_seed) pair that produced it,
//   3. re-simulates under each configured fault scenario (sim/fault.hpp)
//      and records degradation: deadline misses, lost messages, queue
//      growth beyond the fault-free bounds, residual slack.
//
// Graceful campaign degradation: each job runs under a per-job exception
// guard and a deterministic event budget, so a pathological instance
// yields a `failed` or `timeout` row in the JSON/CSV report instead of
// killing the campaign.  Validation runs on the same job pipeline as the
// campaign engine (pipeline.hpp), so its determinism contract carries
// over: every field except wall-clock seconds is bit-identical for any
// `jobs` value (scenario RNG seeds derive from (scenario seed, campaign
// seed, job index, scenario index) by FNV-1a), and a journaled run
// resumes after a crash exactly like a campaign.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "mcs/core/moves.hpp"
#include "mcs/exp/campaign.hpp"
#include "mcs/sim/simulator.hpp"
#include "mcs/util/table.hpp"

namespace mcs::exp {

/// Declarative description of one validation campaign; parsed from the
/// same `key = value` format as CampaignSpec (see examples/soundness.validation).
struct ValidationSpec : SpecBase {
  ValidationSpec()
      : SpecBase{.name = "validation", .suite = "validation", .seeds_per_dim = 25,
                 .suite_base_seed = 7000} {}

  /// Configuration synthesis strategy (Sf, Os or Or; the annealing
  /// strategies need a start candidate and are not meaningful here).
  Strategy strategy = Strategy::Sf;
  /// Fault scenarios simulated after the fault-free soundness check.
  std::vector<sim::FaultSpec> scenarios;
  /// Per-simulation event budget: a run that exhausts it becomes a
  /// `timeout` row (deterministic, unlike a wall-clock limit).
  std::int64_t max_sim_events = 2'000'000;
};

/// Spec keys: the SpecBase keys plus strategy (sf|os|or), scenarios (comma
/// list of sim::FaultSpec scenario names) and max_sim_events.
/// Line-numbered std::invalid_argument on errors.
[[nodiscard]] ValidationSpec parse_validation_spec(std::istream& in);
[[nodiscard]] ValidationSpec parse_validation_spec_file(const std::string& path);

/// Degradation statistics of one fault scenario on one instance.
struct ScenarioOutcome {
  std::string scenario;
  sim::SimStatus sim_status = sim::SimStatus::Completed;
  std::int64_t deadline_misses = 0;
  std::int64_t messages_lost = 0;
  std::int64_t config_violations = 0;  ///< missed slots, late TT starts, ...
  sim::FaultCounters faults;
  std::int64_t max_out_can = 0;
  std::int64_t max_out_ttp = 0;
  /// Queue maxima that exceeded the fault-free analytic bound (OutCAN,
  /// OutTTP and every OutNi counted separately).
  std::int64_t queue_over_bound = 0;
  /// max over graphs of simulated response - deadline (negative = slack
  /// everywhere, util::kTimeInfinity = some graph starved forever).
  util::Time worst_lateness = 0;
};

/// One instance: synthesis verdict, soundness check, degradation rows.
/// The row's `state` is Done ("ok" in reports) when synthesis and every
/// simulation ran to the end; Timeout covers both the deterministic event
/// budget and the per-job wall-clock deadline (error/skip_reason tell them
/// apart).
struct ValidationJob : JobRow {
  bool converged = false;
  bool schedulable = false;
  /// True when the fault-free bound assertion actually ran (it is skipped
  /// — with skip_reason set — when the analysis did not converge or the
  /// fault-free simulation was inconsistent).
  bool bounds_checked = false;
  std::string skip_reason;
  /// Fault-free analytic-bound exceedances: each one is a soundness bug,
  /// replayable from (suite, system_seed, strategy).
  std::vector<sim::BoundViolation> violations;
  std::vector<ScenarioOutcome> scenarios;

  /// FNV-1a over the paper outputs: job, system seed, state, converged,
  /// schedulable, checked, skip_reason, the violations and the scenario
  /// outcomes (fault counters as their total).
  [[nodiscard]] std::uint64_t signature() const;
};

struct ValidationResult : SuiteResult<ValidationSpec, ValidationJob> {
  [[nodiscard]] std::size_t total_violations() const;

  /// Per-dimension roll-up: job statuses, checked/violating instances,
  /// and per scenario the total deadline misses and lost messages.
  [[nodiscard]] util::Table summary_table() const;
};

/// The fault-free soundness step of a validation job, shared with
/// `mcs_synth <system.mcs> --simulate`: simulates `candidate` under the
/// offsets its analysis computed and, when that run completed with no
/// configuration violations, checks every simulated instant against its
/// analytic bound (sim::check_bounds fills sim.bound_violations).
struct NominalRun {
  core::SystemConfig config;  ///< the simulated configuration
  sim::SimResult sim;
  bool checked = false;
  std::string skip_reason;  ///< why the bounds were not checked
};
[[nodiscard]] NominalRun simulate_nominal(const model::Application& app,
                                          const arch::Platform& platform,
                                          const core::Candidate& candidate,
                                          const core::Evaluation& eval,
                                          const sim::SimOptions& options);

/// Runs the validation campaign on `spec.jobs` worker threads.  All
/// deterministic fields are bit-identical for any thread count; journaling
/// and resume work as for run_campaign().
[[nodiscard]] ValidationResult run_validation(const ValidationSpec& spec,
                                              const RunOptions& options = {});

/// Digest of the kind tag "validation", the shared spec keys, the
/// strategy, every field of every scenario and max_sim_events (NOT `name`
/// or `jobs`): the journal header's spec_digest.
[[nodiscard]] std::uint64_t validation_spec_digest(const ValidationSpec& spec);

/// Journal payload codec for one ValidationJob, every field included
/// (decode throws JournalError on malformed payloads).
[[nodiscard]] std::string encode_validation_job(const ValidationJob& job);
[[nodiscard]] ValidationJob decode_validation_job(const std::string& payload);

void write_json(const ValidationResult& result, std::ostream& out);
void write_csv(const ValidationResult& result, std::ostream& out);
/// The --metrics snapshot (metrics.hpp): the suite metrics plus
/// sim.faults.*, each fault counter summed over every scenario outcome.
[[nodiscard]] MetricsSnapshot metrics_snapshot(const ValidationResult& result);

}  // namespace mcs::exp
