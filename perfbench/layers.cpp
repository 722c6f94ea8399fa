// perfbench_layers — times the calls a campaign job makes into each layer.
//
//   perfbench_layers setup  campaign|validation <spec> <reps>
//   perfbench_layers layers campaign|validation <spec> <report.json> [<journal>]
//
// `setup` builds every system of the spec's suite `reps` times and prints,
// per repetition, the summed time of gen::generate and core::MoveContext
// construction: the per-system set-up every campaign run pays.
//
// `layers` runs each job the way mcs_synth does (generate, MoveContext, the
// spec's strategies, and for validation specs the fault-free simulation,
// bound check and fault sweep), then a cold multi_cluster_scheduling of the
// job's final configuration, then writes the report with exp::write_json
// and, when a journal path is given, appends every job to a fresh journal.
// Each of those calls sits inside a harness span; the output is one JSON
// object with the total seconds and call count per span name.
//
// The spec files are the ones run.py hands mcs_synth, so budgets, seeds and
// analysis options are identical on both sides.
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "mcs/core/moves.hpp"
#include "mcs/core/multi_cluster_scheduling.hpp"
#include "mcs/core/optimize_resources.hpp"
#include "mcs/core/optimize_schedule.hpp"
#include "mcs/core/simulated_annealing.hpp"
#include "mcs/core/straightforward.hpp"
#include "mcs/exp/campaign.hpp"
#include "mcs/exp/journal.hpp"
#include "mcs/exp/validation.hpp"
#include "mcs/gen/generator.hpp"
#include "mcs/gen/suites.hpp"
#include "mcs/sim/fault.hpp"
#include "mcs/sim/simulator.hpp"
#include "mcs/util/hash.hpp"

using namespace mcs;

namespace {

struct SpanTotal {
  double seconds = 0.0;
  std::uint64_t calls = 0;
};
using SpanTotals = std::map<std::string, SpanTotal>;

/// RAII span: adds its steady-clock duration to `totals[name]`.
class Span {
public:
  Span(SpanTotals& totals, const char* name)
      : total_(totals[name]), start_(std::chrono::steady_clock::now()) {}
  ~Span() {
    total_.seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
            .count();
    ++total_.calls;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

private:
  SpanTotal& total_;
  std::chrono::steady_clock::time_point start_;
};

void print_totals(const SpanTotals& totals) {
  std::printf("{");
  bool first = true;
  for (const auto& [name, total] : totals) {
    std::printf("%s\"%s\": {\"s\": %.9f, \"n\": %llu}", first ? "" : ", ",
                name.c_str(), total.seconds,
                static_cast<unsigned long long>(total.calls));
    first = false;
  }
  std::printf("}");
}

/// The fields both spec kinds share, which is all the set-up needs.
struct SuiteSpec {
  std::string suite;
  std::size_t seeds_per_dim = 0;
  std::uint64_t suite_base_seed = 0;
  core::McsOptions mcs_options;
};

int run_setup(const SuiteSpec& spec, int reps) {
  const auto suite =
      gen::suite_by_name(spec.suite, spec.seeds_per_dim, spec.suite_base_seed);
  std::printf("{\"systems\": %zu, \"reps\": [", suite.size());
  for (int rep = 0; rep < reps; ++rep) {
    SpanTotals totals;
    for (const gen::SuitePoint& point : suite) {
      std::optional<gen::GeneratedSystem> sys;
      {
        const Span span(totals, "gen.generate");
        sys.emplace(gen::generate(point.params));
      }
      const Span span(totals, "core.workspace_build");
      const core::MoveContext ctx(sys->app, sys->platform, spec.mcs_options);
    }
    std::printf("%s", rep ? ", " : "");
    print_totals(totals);
  }
  std::printf("]}\n");
  return 0;
}

core::OptimizeScheduleOptions schedule_options(const exp::CampaignBudgets& b) {
  core::OptimizeScheduleOptions options;
  options.hopa.max_iterations = b.hopa_iterations;
  return options;
}

core::OptimizeResourcesOptions resources_options(const exp::CampaignBudgets& b) {
  core::OptimizeResourcesOptions options;
  options.schedule = schedule_options(b);
  options.max_seed_starts = b.or_max_seed_starts;
  options.max_climb_iterations = b.or_max_climb_iterations;
  options.neighbors_per_step = b.or_neighbors_per_step;
  return options;
}

/// One strategy's verdict plus the configuration it produced.
struct StrategyRun {
  core::Candidate best;
  core::Evaluation eval;
  int evaluations = 0;
  std::int64_t s_total_before = 0;
};

StrategyRun run_strategy(const core::MoveContext& ctx, exp::Strategy strategy,
                         const exp::CampaignBudgets& budgets,
                         const core::Candidate& sa_start, std::uint64_t sa_seed) {
  switch (strategy) {
    case exp::Strategy::Sf: {
      auto sf = core::straightforward(ctx);
      return {std::move(sf.candidate), std::move(sf.evaluation), 1, 0};
    }
    case exp::Strategy::Os: {
      auto os = core::optimize_schedule(ctx, schedule_options(budgets));
      return {std::move(os.best), std::move(os.best_eval), os.evaluations, 0};
    }
    case exp::Strategy::Or: {
      auto orr = core::optimize_resources(ctx, resources_options(budgets));
      return {std::move(orr.best), std::move(orr.best_eval), orr.evaluations,
              orr.s_total_before};
    }
    case exp::Strategy::Sas:
    case exp::Strategy::Sar: {
      core::SaOptions sa;
      sa.objective = strategy == exp::Strategy::Sas
                         ? core::SaObjective::Schedulability
                         : core::SaObjective::BufferSize;
      sa.max_evaluations = budgets.sa_max_evaluations;
      sa.max_milliseconds = 0;
      sa.seed = sa_seed;
      auto sar = core::simulated_annealing(ctx, sa_start, sa);
      return {std::move(sar.best), std::move(sar.best_eval), sar.evaluations, 0};
    }
  }
  throw std::invalid_argument("unknown strategy");
}

/// Cold analysis of a final configuration: a transient workspace, so no
/// delta base, cache or memo carries over from the search.
void cold_mcs(SpanTotals& totals, const gen::GeneratedSystem& sys,
              const core::MoveContext& ctx, const core::Candidate& final_config,
              const core::McsOptions& options) {
  core::SystemConfig cfg = final_config.to_config(sys.app);
  const Span span(totals, "core.cold_mcs");
  const core::McsResult result = core::multi_cluster_scheduling(
      sys.app, sys.platform, cfg, sched::ScheduleConstraints{}, options,
      ctx.reachability());
  if (result.iterations == 0) throw std::logic_error("cold MCS did not run");
}

void write_report(SpanTotals& totals, const std::string& path, const auto& result) {
  std::ofstream out(path, std::ios::binary);
  {
    const Span span(totals, "exp.write_json");
    exp::write_json(result, out);
    out.flush();
  }
  if (!out) throw std::runtime_error("cannot write " + path);
}

int run_campaign_layers(const exp::CampaignSpec& spec, const std::string& report,
                        const std::string& journal) {
  const auto suite =
      gen::suite_by_name(spec.suite, spec.seeds_per_dim, spec.suite_base_seed);
  const core::McsOptions options = spec.mcs_options();
  SpanTotals totals;
  exp::CampaignResult result;
  result.spec = spec;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const Span job_span(totals, "job");
    exp::JobResult job;
    job.job_index = i;
    job.dimension = suite[i].dimension;
    job.replica = suite[i].replica;
    job.system_seed = suite[i].params.seed;
    std::optional<gen::GeneratedSystem> sys;
    {
      const Span span(totals, "gen.generate");
      sys.emplace(gen::generate(suite[i].params));
    }
    std::optional<core::MoveContext> ctx;
    {
      const Span span(totals, "core.workspace_build");
      ctx.emplace(sys->app, sys->platform, options);
    }
    job.processes = sys->app.num_processes();
    job.messages = sys->app.num_messages();
    job.inter_cluster_messages = sys->inter_cluster_messages;
    core::Candidate last = core::Candidate::initial(sys->app, sys->platform);
    for (std::size_t si = 0; si < spec.strategies.size(); ++si) {
      const exp::Strategy strategy = spec.strategies[si];
      exp::StrategyOutcome outcome;
      outcome.strategy = strategy;
      const bool anneal = strategy == exp::Strategy::Sas || strategy == exp::Strategy::Sar;
      if (anneal && !spec.anneal_unschedulable_starts && !job.outcomes.empty() &&
          !job.outcomes.back().schedulable) {
        outcome.skipped = true;
        job.outcomes.push_back(outcome);
        continue;
      }
      const auto start = std::chrono::steady_clock::now();
      std::optional<StrategyRun> run;
      {
        const Span span(totals, "core.strategy");
        run.emplace(run_strategy(*ctx, strategy, spec.budgets, last,
                                 exp::derive_seed(spec.campaign_seed, i, si)));
      }
      outcome.seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
              .count();
      outcome.schedulable = run->eval.schedulable;
      outcome.delta = run->eval.delta;
      outcome.s_total = run->eval.s_total;
      outcome.s_total_before = run->s_total_before;
      outcome.evaluations = run->evaluations;
      job.evals += static_cast<std::uint64_t>(run->evaluations);
      job.outcomes.push_back(outcome);
      last = std::move(run->best);
    }
    cold_mcs(totals, *sys, *ctx, last, options);
    result.jobs.push_back(std::move(job));
  }
  write_report(totals, report, result);
  if (!journal.empty()) {
    exp::JournalWriter writer = exp::JournalWriter::create(
        journal, exp::JournalHeader{1, exp::campaign_spec_digest(spec)});
    for (const exp::JobResult& job : result.jobs) {
      const std::string payload = exp::encode_job_result(job);
      const Span span(totals, "exp.journal_append");
      writer.append(payload);
    }
    writer.close();
  }
  std::printf("{\"jobs\": %zu, \"spans\": ", result.jobs.size());
  print_totals(totals);
  std::printf("}\n");
  return 0;
}

/// The fault-scenario seed the validation engine derives for a job.
std::uint64_t scenario_seed(const sim::FaultSpec& scenario, std::uint64_t campaign_seed,
                            std::size_t job_index, std::size_t scenario_index) {
  util::Fnv1a h;
  h.update(scenario.seed);
  h.update(campaign_seed);
  h.update(static_cast<std::uint64_t>(job_index));
  h.update(static_cast<std::uint64_t>(scenario_index));
  return h.digest();
}

int run_validation_layers(const exp::ValidationSpec& spec, const std::string& report) {
  const auto suite =
      gen::suite_by_name(spec.suite, spec.seeds_per_dim, spec.suite_base_seed);
  const core::McsOptions options = spec.mcs_options();
  SpanTotals totals;
  exp::ValidationResult result;
  result.spec = spec;
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const Span job_span(totals, "job");
    exp::ValidationJob job;
    job.job_index = i;
    job.dimension = suite[i].dimension;
    job.replica = suite[i].replica;
    job.system_seed = suite[i].params.seed;
    std::optional<gen::GeneratedSystem> sys;
    {
      const Span span(totals, "gen.generate");
      sys.emplace(gen::generate(suite[i].params));
    }
    std::optional<core::MoveContext> ctx;
    {
      const Span span(totals, "core.workspace_build");
      ctx.emplace(sys->app, sys->platform, options);
    }
    job.processes = sys->app.num_processes();
    job.messages = sys->app.num_messages();
    std::optional<StrategyRun> found;
    {
      const Span span(totals, "core.strategy");
      found.emplace(run_strategy(*ctx, spec.strategy, spec.budgets,
                                 core::Candidate::initial(sys->app, sys->platform), 0));
    }
    const StrategyRun& run = *found;
    job.evals = static_cast<std::uint64_t>(run.evaluations);
    job.converged = run.eval.mcs.converged;
    job.schedulable = run.eval.schedulable;
    cold_mcs(totals, *sys, *ctx, run.best, options);
    if (job.converged) {
      core::SystemConfig cfg = run.best.to_config(sys->app);
      for (std::size_t pi = 0; pi < sys->app.num_processes(); ++pi) {
        cfg.set_process_offset(
            util::ProcessId(static_cast<util::ProcessId::underlying_type>(pi)),
            run.eval.mcs.analysis.process_offsets[pi]);
      }
      sim::SimOptions sim_options;
      sim_options.max_events = spec.max_sim_events;
      std::optional<sim::SimResult> nominal;
      {
        const Span span(totals, "sim.simulate");
        nominal.emplace(sim::simulate(sys->app, sys->platform, cfg,
                                      run.eval.mcs.schedule, sim_options));
      }
      if (nominal->status == sim::SimStatus::Completed && nominal->violations.empty()) {
        job.bounds_checked = true;
        const Span span(totals, "sim.check_bounds");
        sim::check_bounds(sys->app, run.eval.mcs.analysis, *nominal);
      }
      job.violations = nominal->bound_violations;
      for (std::size_t si = 0; si < spec.scenarios.size(); ++si) {
        sim::FaultSpec scenario = spec.scenarios[si];
        scenario.seed = scenario_seed(scenario, spec.campaign_seed, i, si);
        std::optional<sim::SimResult> faulted;
        {
          const Span span(totals, "sim.simulate");
          faulted.emplace(sim::simulate(sys->app, sys->platform, cfg,
                                        run.eval.mcs.schedule, sim_options, scenario));
        }
        exp::ScenarioOutcome outcome;
        outcome.scenario = scenario.name;
        outcome.sim_status = faulted->status;
        outcome.deadline_misses =
            static_cast<std::int64_t>(faulted->deadline_misses.size());
        outcome.messages_lost = static_cast<std::int64_t>(faulted->lost_messages.size());
        outcome.config_violations = static_cast<std::int64_t>(faulted->violations.size());
        outcome.faults = faulted->faults;
        outcome.max_out_can = faulted->max_out_can;
        outcome.max_out_ttp = faulted->max_out_ttp;
        job.scenarios.push_back(std::move(outcome));
      }
    }
    result.jobs.push_back(std::move(job));
  }
  write_report(totals, report, result);
  std::printf("{\"jobs\": %zu, \"spans\": ", result.jobs.size());
  print_totals(totals);
  std::printf("}\n");
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_layers setup campaign|validation <spec> <reps>\n"
               "       perfbench_layers layers campaign|validation <spec> "
               "<report.json> [<journal>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 5) return usage();
  const std::string mode = argv[1];
  const std::string kind = argv[2];
  const std::string spec_path = argv[3];
  if (kind != "campaign" && kind != "validation") return usage();
  try {
    if (mode == "setup") {
      const int reps = std::stoi(argv[4]);
      if (reps < 1) return usage();
      if (kind == "campaign") {
        const exp::CampaignSpec spec = exp::parse_campaign_spec_file(spec_path);
        return run_setup({spec.suite, spec.seeds_per_dim, spec.suite_base_seed,
                          spec.mcs_options()},
                         reps);
      }
      const exp::ValidationSpec spec = exp::parse_validation_spec_file(spec_path);
      return run_setup(
          {spec.suite, spec.seeds_per_dim, spec.suite_base_seed, spec.mcs_options()},
          reps);
    }
    if (mode == "layers") {
      const std::string journal = argc > 5 ? argv[5] : "";
      if (kind == "campaign") {
        return run_campaign_layers(exp::parse_campaign_spec_file(spec_path), argv[4],
                                   journal);
      }
      if (!journal.empty()) return usage();
      return run_validation_layers(exp::parse_validation_spec_file(spec_path), argv[4]);
    }
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_layers: %s\n", e.what());
    return 1;
  }
}
