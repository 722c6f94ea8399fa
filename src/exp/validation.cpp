#include "mcs/exp/validation.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "mcs/core/optimize_resources.hpp"
#include "mcs/core/straightforward.hpp"
#include "mcs/gen/generator.hpp"
#include "mcs/obs/export.hpp"
#include "mcs/obs/trace.hpp"
#include "mcs/util/hash.hpp"
#include "mcs/util/kv_parse.hpp"
#include "mcs/util/thread_pool.hpp"

namespace mcs::exp {

namespace {

constexpr const char* kSpecContext = "validation spec";

[[nodiscard]] double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// The per-(job, scenario) RNG seed: a pure function of the spec, so the
/// same scenario perturbs the same instance identically for any thread
/// count — and differently across instances and scenario positions.
[[nodiscard]] std::uint64_t scenario_seed(const sim::FaultSpec& scenario,
                                          std::uint64_t campaign_seed,
                                          std::size_t job_index,
                                          std::size_t scenario_index) {
  util::Fnv1a h;
  h.update(scenario.seed);
  h.update(campaign_seed);
  h.update(static_cast<std::uint64_t>(job_index));
  h.update(static_cast<std::uint64_t>(scenario_index));
  return h.digest();
}

/// Simulated lateness of the worst graph: response - deadline, with an
/// unfinished graph counting as util::kTimeInfinity (starved forever).
[[nodiscard]] util::Time worst_lateness(const model::Application& app,
                                        const sim::SimResult& sim) {
  util::Time worst = -util::kTimeInfinity;
  for (std::size_t gi = 0; gi < app.num_graphs(); ++gi) {
    const util::Time response = sim.graph_response[gi];
    const util::Time lateness = response < 0
                                    ? util::kTimeInfinity
                                    : response - app.graphs()[gi].deadline;
    worst = std::max(worst, lateness);
  }
  return app.num_graphs() == 0 ? 0 : worst;
}

[[nodiscard]] ScenarioOutcome summarize(const sim::FaultSpec& scenario,
                                        const model::Application& app,
                                        const core::AnalysisResult& analysis,
                                        const sim::SimResult& sim) {
  ScenarioOutcome outcome;
  outcome.scenario = scenario.name;
  outcome.sim_status = sim.status;
  outcome.deadline_misses = static_cast<std::int64_t>(sim.deadline_misses.size());
  outcome.messages_lost = static_cast<std::int64_t>(sim.lost_messages.size());
  outcome.config_violations = static_cast<std::int64_t>(sim.violations.size());
  outcome.faults = sim.faults;
  outcome.max_out_can = sim.max_out_can;
  outcome.max_out_ttp = sim.max_out_ttp;
  if (sim.max_out_can > analysis.buffers.out_can) ++outcome.queue_over_bound;
  if (sim.max_out_ttp > analysis.buffers.out_ttp) ++outcome.queue_over_bound;
  for (const auto& [node, occupancy] : sim.max_out_node) {
    const auto bound = analysis.buffers.out_node.find(node);
    const std::int64_t limit =
        bound == analysis.buffers.out_node.end() ? 0 : bound->second;
    if (occupancy > limit) ++outcome.queue_over_bound;
  }
  outcome.worst_lateness = worst_lateness(app, sim);
  return outcome;
}

/// One instance end to end: synthesize, soundness-check the fault-free
/// run, then sweep the fault scenarios.  Everything mutable is local to
/// the one worker thread executing this call.
[[nodiscard]] ValidationJob run_job(const ValidationSpec& spec,
                                    const gen::SuitePoint& point,
                                    std::size_t job_index,
                                    const util::CancelToken& cancel) {
  const obs::Span job_span("validation.job", static_cast<std::uint64_t>(job_index));
  const auto job_start = std::chrono::steady_clock::now();
  ValidationJob job;
  job.job_index = job_index;
  job.dimension = point.dimension;
  job.replica = point.replica;
  job.system_seed = point.params.seed;

  const gen::GeneratedSystem sys = gen::generate(point.params);
  job.processes = sys.app.num_processes();
  job.messages = sys.app.num_messages();

  const core::MoveContext ctx(sys.app, sys.platform, spec.mcs_options());
  core::OptimizeScheduleOptions os_options;
  os_options.hopa.max_iterations = spec.budgets.hopa_iterations;
  os_options.cancel = &cancel;
  core::OptimizeResourcesOptions or_options;
  or_options.schedule = os_options;
  or_options.max_seed_starts = spec.budgets.or_max_seed_starts;
  or_options.max_climb_iterations = spec.budgets.or_max_climb_iterations;
  or_options.neighbors_per_step = spec.budgets.or_neighbors_per_step;

  core::Candidate candidate = core::Candidate::initial(sys.app, sys.platform);
  core::Evaluation eval;
  switch (spec.strategy) {
    case Strategy::Sf: {
      auto sf = core::straightforward(ctx);
      candidate = std::move(sf.candidate);
      eval = std::move(sf.evaluation);
      job.evals = 1;
      break;
    }
    case Strategy::Os: {
      auto os = core::optimize_schedule(ctx, os_options);
      candidate = std::move(os.best);
      eval = std::move(os.best_eval);
      job.evals = static_cast<std::uint64_t>(os.evaluations);
      break;
    }
    case Strategy::Or: {
      auto orr = core::optimize_resources(ctx, or_options);
      candidate = std::move(orr.best);
      eval = std::move(orr.best_eval);
      job.evals = static_cast<std::uint64_t>(orr.evaluations);
      break;
    }
    case Strategy::Sas:
    case Strategy::Sar:
      throw std::invalid_argument(
          "validation campaigns support the sf, os and or strategies only");
  }
  job.converged = eval.mcs.converged;
  job.schedulable = eval.schedulable;
  // Synthesis is over, so the job-local cache and workspace counters are
  // final: record them before any of the early returns below.
  job.cache_hits = ctx.evaluation_cache().hits();
  job.cache_lookups = ctx.evaluation_cache().hits() + ctx.evaluation_cache().misses();
  job.delta_fallbacks = ctx.workspace().delta_stats().fallbacks;
  obs::publish_workspace(ctx.workspace(), ctx.evaluation_cache().hits(),
                         ctx.evaluation_cache().misses(),
                         core::kernel_name(spec.mcs_options().analysis.kernel));

  // Bounds from a non-converged fixed point are not claims the analysis
  // makes, so there is nothing sound to check (mirrors the cross
  // validation test's skip rule).
  if (!job.converged) {
    job.skip_reason = "analysis did not converge";
    job.seconds = seconds_since(job_start);
    return job;
  }

  core::SystemConfig cfg = candidate.to_config(sys.app);
  for (std::size_t pi = 0; pi < sys.app.num_processes(); ++pi) {
    cfg.set_process_offset(
        util::ProcessId(static_cast<util::ProcessId::underlying_type>(pi)),
        eval.mcs.analysis.process_offsets[pi]);
  }
  sim::SimOptions sim_options;
  sim_options.max_events = spec.max_sim_events;

  // Fault-free WCET run: every simulated instant must respect its
  // analytic bound; any exceedance is a soundness bug in the analysis.
  sim::SimResult nominal =
      sim::simulate(sys.app, sys.platform, cfg, eval.mcs.schedule, sim_options);
  if (nominal.status == sim::SimStatus::EventLimitExhausted) {
    job.status = JobStatus::Timeout;
    job.skip_reason = "fault-free simulation exhausted the event budget";
    job.seconds = seconds_since(job_start);
    return job;
  }
  if (!nominal.violations.empty()) {
    job.skip_reason = "fault-free run reported configuration violations";
  } else if (nominal.status != sim::SimStatus::Completed) {
    job.skip_reason =
        std::string("fault-free run ended ") + sim::to_string(nominal.status);
  } else {
    job.bounds_checked = true;
    sim::check_bounds(sys.app, eval.mcs.analysis, nominal);
    job.violations = std::move(nominal.bound_violations);
  }

  // Degradation sweep.  Under faults the bounds need not hold; we record
  // what actually broke (and how badly) per scenario.
  for (std::size_t si = 0; si < spec.scenarios.size(); ++si) {
    cancel.throw_if_cancelled();
    sim::FaultSpec scenario = spec.scenarios[si];
    scenario.seed =
        scenario_seed(scenario, spec.campaign_seed, job_index, si);
    const sim::SimResult faulted = sim::simulate(
        sys.app, sys.platform, cfg, eval.mcs.schedule, sim_options, scenario);
    obs::publish_fault_counters(faulted.faults);
    job.scenarios.push_back(
        summarize(scenario, sys.app, eval.mcs.analysis, faulted));
    if (faulted.status == sim::SimStatus::EventLimitExhausted) {
      job.status = JobStatus::Timeout;
    }
  }

  job.seconds = seconds_since(job_start);
  return job;
}

/// Report row for a job the runtime settled without a completed run_job
/// (watchdog timeout, failure, shed, pending).
[[nodiscard]] ValidationJob degraded_job(const gen::SuitePoint& point,
                                         std::size_t job_index,
                                         const JobDisposition& disposition) {
  ValidationJob job;
  job.job_index = job_index;
  job.dimension = point.dimension;
  job.replica = point.replica;
  job.system_seed = point.params.seed;
  switch (disposition.state) {
    case RunState::Timeout: job.status = JobStatus::Timeout; break;
    case RunState::Failed: job.status = JobStatus::Failed; break;
    case RunState::Shed: job.status = JobStatus::Shed; break;
    case RunState::Pending: job.status = JobStatus::Pending; break;
    case RunState::Done: break;  // not reached: Done keeps run_job's row
  }
  job.attempts = disposition.attempts;
  job.error = disposition.error;
  return job;
}

void update_signature(util::Fnv1a& h, const std::string& s) {
  h.update(static_cast<std::uint64_t>(s.size()));
  for (const char c : s) h.update_byte(static_cast<std::uint8_t>(c));
}

void update_signature(util::Fnv1a& h, const ValidationJob& job) {
  h.update(static_cast<std::uint64_t>(job.job_index));
  h.update(static_cast<std::uint64_t>(job.dimension));
  h.update(static_cast<std::uint64_t>(job.replica));
  h.update(job.system_seed);
  h.update(static_cast<std::uint64_t>(job.processes));
  h.update(static_cast<std::uint64_t>(job.messages));
  h.update(static_cast<std::uint64_t>(job.status));
  h.update(static_cast<std::uint64_t>(job.attempts));
  update_signature(h, job.error);
  h.update(static_cast<std::uint64_t>(job.converged ? 1 : 0));
  h.update(static_cast<std::uint64_t>(job.schedulable ? 1 : 0));
  h.update(static_cast<std::uint64_t>(job.bounds_checked ? 1 : 0));
  update_signature(h, job.skip_reason);
  for (const sim::BoundViolation& v : job.violations) {
    update_signature(h, v.activity);
    h.update(v.simulated);
    h.update(v.bound);
  }
  for (const ScenarioOutcome& s : job.scenarios) {
    update_signature(h, s.scenario);
    h.update(static_cast<std::uint64_t>(s.sim_status));
    h.update(s.deadline_misses);
    h.update(s.messages_lost);
    h.update(s.config_violations);
    h.update(s.faults.can_frames_dropped);
    h.update(s.faults.can_messages_lost);
    h.update(s.faults.can_frames_delayed);
    h.update(s.faults.ttp_frames_dropped);
    h.update(s.faults.ttp_messages_lost);
    h.update(s.faults.babble_seizures);
    h.update(s.faults.tt_jitter_events);
    h.update(s.faults.gateway_jitter_events);
    h.update(s.faults.exec_variations);
    h.update(s.max_out_can);
    h.update(s.max_out_ttp);
    h.update(s.queue_over_bound);
    h.update(static_cast<std::int64_t>(s.worst_lateness));
  }
  h.update(job.evals);
  h.update(job.cache_hits);
  h.update(job.cache_lookups);
  h.update(job.delta_fallbacks);
}

[[nodiscard]] std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

[[nodiscard]] std::string csv_escape(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

const char* to_string(JobStatus status) {
  switch (status) {
    case JobStatus::Ok: return "ok";
    case JobStatus::Timeout: return "timeout";
    case JobStatus::Failed: return "failed";
    case JobStatus::Shed: return "shed";
    case JobStatus::Pending: return "pending";
  }
  return "?";
}

core::McsOptions ValidationSpec::mcs_options() const {
  core::McsOptions options;
  options.analysis.offset_pruning = !conservative;
  options.analysis.ttp_queue_model =
      paper_ttp ? core::TtpQueueModel::PaperFormula : core::TtpQueueModel::Exact;
  return options;
}

ValidationSpec parse_validation_spec(std::istream& in) {
  ValidationSpec spec;
  for (const util::KvEntry& e : util::parse_kv(in, kSpecContext)) {
    if (e.key == "name") {
      spec.name = e.value;
    } else if (e.key == "suite") {
      spec.suite = e.value;
    } else if (e.key == "seeds_per_dim") {
      spec.seeds_per_dim = static_cast<std::size_t>(util::kv_u64(e, kSpecContext));
    } else if (e.key == "suite_base_seed") {
      spec.suite_base_seed = util::kv_u64(e, kSpecContext);
    } else if (e.key == "campaign_seed") {
      spec.campaign_seed = util::kv_u64(e, kSpecContext);
    } else if (e.key == "strategy") {
      try {
        spec.strategy = parse_strategy(e.value);
      } catch (const std::invalid_argument& err) {
        util::kv_fail(kSpecContext, e.line, err.what());
      }
      if (spec.strategy == Strategy::Sas || spec.strategy == Strategy::Sar) {
        util::kv_fail(kSpecContext, e.line,
                      "strategy must be sf, os or or (the annealing "
                      "strategies need a start candidate)");
      }
    } else if (e.key == "conservative") {
      spec.conservative = util::kv_bool(e, kSpecContext);
    } else if (e.key == "paper_ttp") {
      spec.paper_ttp = util::kv_bool(e, kSpecContext);
    } else if (e.key == "scenarios") {
      spec.scenarios.clear();
      for (const std::string& name : util::kv_list(e, kSpecContext)) {
        try {
          spec.scenarios.push_back(sim::FaultSpec::scenario(name, /*seed=*/1));
        } catch (const std::invalid_argument& err) {
          util::kv_fail(kSpecContext, e.line, err.what());
        }
      }
    } else if (e.key == "max_sim_events") {
      spec.max_sim_events = static_cast<std::int64_t>(util::kv_u64(e, kSpecContext));
    } else if (e.key == "jobs") {
      spec.jobs = static_cast<std::size_t>(util::kv_u64(e, kSpecContext));
    } else if (e.key == "job_timeout_ms") {
      spec.job_timeout_ms = static_cast<std::int64_t>(util::kv_u64(e, kSpecContext));
    } else if (e.key == "max_retries") {
      spec.max_retries = util::kv_int(e, kSpecContext);
    } else if (e.key == "queue_limit") {
      spec.queue_limit = static_cast<std::size_t>(util::kv_u64(e, kSpecContext));
    } else if (e.key == "sa_max_evaluations") {
      spec.budgets.sa_max_evaluations = util::kv_int(e, kSpecContext);
    } else if (e.key == "hopa_iterations") {
      spec.budgets.hopa_iterations = util::kv_int(e, kSpecContext);
    } else if (e.key == "or_max_seed_starts") {
      spec.budgets.or_max_seed_starts =
          static_cast<std::size_t>(util::kv_u64(e, kSpecContext));
    } else if (e.key == "or_max_climb_iterations") {
      spec.budgets.or_max_climb_iterations = util::kv_int(e, kSpecContext);
    } else if (e.key == "or_neighbors_per_step") {
      spec.budgets.or_neighbors_per_step =
          static_cast<std::size_t>(util::kv_u64(e, kSpecContext));
    } else {
      util::kv_fail(kSpecContext, e.line, "unknown key '" + e.key + "'");
    }
  }
  return spec;
}

ValidationSpec parse_validation_spec_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("cannot open validation spec: " + path);
  return parse_validation_spec(in);
}

std::uint64_t ValidationJob::signature() const {
  util::Fnv1a h;
  update_signature(h, *this);
  return h.digest();
}

std::uint64_t ValidationResult::signature() const {
  util::Fnv1a h;
  for (const ValidationJob& job : jobs) update_signature(h, job);
  return h.digest();
}

std::size_t ValidationResult::total_violations() const {
  std::size_t total = 0;
  for (const ValidationJob& job : jobs) total += job.violations.size();
  return total;
}

std::size_t ValidationResult::count(JobStatus status) const {
  std::size_t n = 0;
  for (const ValidationJob& job : jobs) {
    if (job.status == status) ++n;
  }
  return n;
}

ValidationResult run_validation(const ValidationSpec& spec) {
  return run_validation(spec, ValidationRunOptions{});
}

ValidationResult run_validation(const ValidationSpec& spec,
                                const ValidationRunOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  const auto suite =
      gen::suite_by_name(spec.suite, spec.seeds_per_dim, spec.suite_base_seed);

  ValidationResult result;
  result.spec = spec;
  result.jobs.resize(suite.size());

  RuntimeOptions runtime;
  runtime.workers = spec.jobs == 0 ? util::ThreadPool::default_workers() : spec.jobs;
  runtime.job_timeout_ms = spec.job_timeout_ms;
  runtime.max_retries = spec.max_retries;
  runtime.queue_limit = spec.queue_limit;
  runtime.retry_seed = spec.campaign_seed;
  runtime.stop = options.stop;
  runtime.faults = options.faults;

  // Graceful degradation via the job runtime: a throwing job becomes a
  // `failed` row, a watchdog overrun a `timeout` row, admission control a
  // `shed` row — never an abort (same contract as run_campaign).
  RuntimeReport report;
  const std::vector<JobDisposition> dispositions = run_jobs(
      runtime, suite.size(),
      [&](std::size_t i, const util::CancelToken& cancel) {
        result.jobs[i] = run_job(spec, suite[i], i, cancel);
      },
      nullptr,
      [&](std::size_t i, const JobDisposition& disposition) {
        if (disposition.state == RunState::Done) {
          result.jobs[i].attempts = disposition.attempts;
          if (!disposition.error.empty()) result.jobs[i].error = disposition.error;
        } else {
          result.jobs[i] = degraded_job(suite[i], i, disposition);
        }
      },
      &report);
  for (std::size_t i = 0; i < suite.size(); ++i) {
    if (dispositions[i].state != RunState::Pending) continue;
    JobDisposition pending = dispositions[i];
    pending.error = "pending: shutdown requested before the job finished";
    result.jobs[i] = degraded_job(suite[i], i, pending);
  }

  result.workers = report.workers;
  result.interrupted = report.interrupted;
  result.wall_seconds = seconds_since(start);
  return result;
}

util::Table ValidationResult::summary_table() const {
  std::vector<std::string> header = {"dimension", "instances", "ok",
                                     "timeout",   "failed",    "shed",
                                     "checked",   "violations"};
  for (const sim::FaultSpec& scenario : spec.scenarios) {
    header.push_back(scenario.name + " miss");
    header.push_back(scenario.name + " lost");
  }

  struct Cell {
    std::int64_t instances = 0, ok = 0, timeout = 0, failed = 0, shed = 0;
    std::int64_t checked = 0, violations = 0;
    std::vector<std::int64_t> misses, lost;
  };
  std::map<std::size_t, Cell> by_dimension;
  for (const ValidationJob& job : jobs) {
    Cell& cell = by_dimension[job.dimension];
    cell.misses.resize(spec.scenarios.size());
    cell.lost.resize(spec.scenarios.size());
    ++cell.instances;
    switch (job.status) {
      case JobStatus::Ok: ++cell.ok; break;
      case JobStatus::Timeout: ++cell.timeout; break;
      case JobStatus::Failed: ++cell.failed; break;
      case JobStatus::Shed: ++cell.shed; break;
      case JobStatus::Pending: break;  // instances - (ok+timeout+failed+shed)
    }
    if (job.bounds_checked) ++cell.checked;
    cell.violations += static_cast<std::int64_t>(job.violations.size());
    for (std::size_t si = 0; si < job.scenarios.size() &&
                             si < spec.scenarios.size();
         ++si) {
      cell.misses[si] += job.scenarios[si].deadline_misses;
      cell.lost[si] += job.scenarios[si].messages_lost;
    }
  }

  util::Table table(header);
  for (const auto& [dimension, cell] : by_dimension) {
    std::vector<std::string> row = {
        util::Table::fmt(static_cast<std::int64_t>(dimension)),
        util::Table::fmt(cell.instances),
        util::Table::fmt(cell.ok),
        util::Table::fmt(cell.timeout),
        util::Table::fmt(cell.failed),
        util::Table::fmt(cell.shed),
        util::Table::fmt(cell.checked),
        util::Table::fmt(cell.violations)};
    for (std::size_t si = 0; si < spec.scenarios.size(); ++si) {
      row.push_back(util::Table::fmt(cell.misses[si]));
      row.push_back(util::Table::fmt(cell.lost[si]));
    }
    table.add_row(row);
  }
  return table;
}

void write_json(const ValidationResult& result, std::ostream& out) {
  const ValidationSpec& spec = result.spec;
  out << "{\n  \"validation\": \"" << json_escape(spec.name) << "\",\n"
      << "  \"suite\": \"" << json_escape(spec.suite) << "\",\n"
      << "  \"seeds_per_dim\": " << spec.seeds_per_dim << ",\n"
      << "  \"campaign_seed\": " << spec.campaign_seed << ",\n"
      << "  \"strategy\": \"" << to_string(spec.strategy) << "\",\n"
      << "  \"scenarios\": [";
  for (std::size_t i = 0; i < spec.scenarios.size(); ++i) {
    out << (i ? ", " : "") << "\"" << json_escape(spec.scenarios[i].name) << "\"";
  }
  out << "],\n  \"workers\": " << result.workers << ",\n"
      << "  \"interrupted\": " << (result.interrupted ? "true" : "false") << ",\n"
      << "  \"wall_seconds\": " << result.wall_seconds << ",\n";
  char sig[32];
  std::snprintf(sig, sizeof sig, "%016llx",
                static_cast<unsigned long long>(result.signature()));
  out << "  \"signature\": \"" << sig << "\",\n"
      << "  \"totals\": {\"jobs\": " << result.jobs.size() << ", \"ok\": "
      << result.count(JobStatus::Ok) << ", \"timeout\": "
      << result.count(JobStatus::Timeout) << ", \"failed\": "
      << result.count(JobStatus::Failed) << ", \"shed\": "
      << result.count(JobStatus::Shed) << ", \"pending\": "
      << result.count(JobStatus::Pending) << ", \"bound_violations\": "
      << result.total_violations() << "},\n  \"jobs\": [\n";

  for (std::size_t ji = 0; ji < result.jobs.size(); ++ji) {
    const ValidationJob& job = result.jobs[ji];
    out << "    {\"job\": " << job.job_index << ", \"dimension\": "
        << job.dimension << ", \"replica\": " << job.replica
        << ", \"system_seed\": " << job.system_seed << ", \"processes\": "
        << job.processes << ", \"messages\": " << job.messages
        << ", \"status\": \"" << to_string(job.status) << "\", \"attempts\": "
        << job.attempts << ", \"error\": \""
        << json_escape(job.error) << "\", \"converged\": "
        << (job.converged ? "true" : "false") << ", \"schedulable\": "
        << (job.schedulable ? "true" : "false") << ", \"checked\": "
        << (job.bounds_checked ? "true" : "false") << ", \"skip_reason\": \""
        << json_escape(job.skip_reason) << "\", \"seconds\": " << job.seconds
        << ",\n     \"metrics\": {\"evals\": " << job.evals
        << ", \"cache_hits\": " << job.cache_hits
        << ", \"cache_lookups\": " << job.cache_lookups
        << ", \"cache_hit_rate\": " << job.cache_hit_rate()
        << ", \"delta_fallbacks\": " << job.delta_fallbacks
        << "},\n     \"violations\": [";
    for (std::size_t vi = 0; vi < job.violations.size(); ++vi) {
      const sim::BoundViolation& v = job.violations[vi];
      out << (vi ? ", " : "") << "{\"activity\": \"" << json_escape(v.activity)
          << "\", \"simulated\": " << v.simulated << ", \"bound\": " << v.bound
          << "}";
    }
    out << "],\n     \"scenarios\": [";
    for (std::size_t si = 0; si < job.scenarios.size(); ++si) {
      const ScenarioOutcome& s = job.scenarios[si];
      out << (si ? ",\n       " : "\n       ") << "{\"scenario\": \""
          << json_escape(s.scenario) << "\", \"sim_status\": \""
          << sim::to_string(s.sim_status) << "\", \"deadline_misses\": "
          << s.deadline_misses << ", \"messages_lost\": " << s.messages_lost
          << ", \"config_violations\": " << s.config_violations
          << ", \"faults_injected\": " << s.faults.total()
          << ", \"max_out_can\": " << s.max_out_can << ", \"max_out_ttp\": "
          << s.max_out_ttp << ", \"queue_over_bound\": " << s.queue_over_bound
          << ", \"worst_lateness\": " << static_cast<std::int64_t>(s.worst_lateness)
          << "}";
    }
    out << "]}" << (ji + 1 < result.jobs.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

void write_csv(const ValidationResult& result, std::ostream& out) {
  out << "validation,job,dimension,replica,system_seed,processes,messages,"
         "status,attempts,error,converged,schedulable,checked,skip_reason,"
         "violations,"
         "scenario,sim_status,deadline_misses,messages_lost,config_violations,"
         "faults_injected,max_out_can,max_out_ttp,queue_over_bound,"
         "worst_lateness,evals,cache_hit_rate,delta_fallbacks,seconds\n";
  const std::string name = csv_escape(result.spec.name);
  for (const ValidationJob& job : result.jobs) {
    const auto prefix = [&](std::ostream& os) -> std::ostream& {
      return os << name << ',' << job.job_index << ',' << job.dimension << ','
                << job.replica << ',' << job.system_seed << ',' << job.processes
                << ',' << job.messages << ',' << to_string(job.status) << ','
                << job.attempts << ','
                << csv_escape(job.error) << ',' << (job.converged ? 1 : 0)
                << ',' << (job.schedulable ? 1 : 0) << ','
                << (job.bounds_checked ? 1 : 0) << ','
                << csv_escape(job.skip_reason) << ','
                << job.violations.size();
    };
    // Instrumentation columns, then the wall-clock column LAST: everything
    // before `seconds` is deterministic, so consumers can strip the final
    // column to compare reports across runs and thread counts.
    const auto suffix = [&](std::ostream& os) -> std::ostream& {
      return os << ',' << job.evals << ',' << job.cache_hit_rate() << ','
                << job.delta_fallbacks << ',' << job.seconds;
    };
    // The fault-free row, then one row per fault scenario.
    suffix(prefix(out) << ",nominal,-,0,0,0,0,0,0,0,0") << '\n';
    for (const ScenarioOutcome& s : job.scenarios) {
      suffix(prefix(out) << ',' << csv_escape(s.scenario) << ','
                         << sim::to_string(s.sim_status) << ',' << s.deadline_misses
                         << ',' << s.messages_lost << ',' << s.config_violations << ','
                         << s.faults.total() << ',' << s.max_out_can << ','
                         << s.max_out_ttp << ',' << s.queue_over_bound << ','
                         << static_cast<std::int64_t>(s.worst_lateness))
          << '\n';
    }
  }
}

}  // namespace mcs::exp
