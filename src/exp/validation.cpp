#include "mcs/exp/validation.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <fstream>
#include <map>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "mcs/exp/suite_driver.hpp"

namespace mcs::exp {

namespace {

constexpr const char* kSpecContext = "validation spec";

/// Validation reports spell a finished job "ok".
[[nodiscard]] const char* status_name(RunState state) {
  return state == RunState::Done ? "ok" : to_string(state);
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

/// The nine FaultCounters fields in journal order (const or mutable), and
/// their names.
template <typename Counters>
[[nodiscard]] auto fault_fields(Counters& c) {
  return std::array{&c.can_frames_dropped,  &c.can_messages_lost,
                    &c.can_frames_delayed,  &c.ttp_frames_dropped,
                    &c.ttp_messages_lost,   &c.babble_seizures,
                    &c.tt_jitter_events,    &c.gateway_jitter_events,
                    &c.exec_variations};
}
constexpr std::array<const char*, 9> kFaultFieldNames = {
    "can_frames_dropped", "can_messages_lost", "can_frames_delayed",
    "ttp_frames_dropped", "ttp_messages_lost", "babble_seizures",
    "tt_jitter_events",   "gateway_jitter_events", "exec_variations"};

/// One instance end to end: synthesize, soundness-check the fault-free
/// run, then sweep the fault scenarios.
void run_job(const ValidationSpec& spec, const gen::GeneratedSystem& sys,
             ValidationJob& job, MetricsSnapshot& engine, const util::CancelToken& cancel) {
  JobSynthesis synthesis(sys, spec, cancel);
  const StrategyRun run = synthesis.step(spec.strategy);
  job.evals = static_cast<std::uint64_t>(run.evaluations);
  job.converged = run.eval.mcs.converged;
  job.schedulable = run.eval.schedulable;
  synthesis.record_counters(job, engine);

  // Bounds from a non-converged fixed point are not claims the analysis
  // makes, so there is nothing sound to check (mirrors the cross
  // validation test's skip rule).
  if (!job.converged) {
    job.skip_reason = "analysis did not converge";
    return;
  }

  sim::SimOptions sim_options;
  sim_options.max_events = spec.max_sim_events;
  NominalRun nominal =
      simulate_nominal(sys.app, sys.platform, run.best, run.eval, sim_options);
  job.skip_reason = std::move(nominal.skip_reason);
  if (nominal.sim.status == sim::SimStatus::EventLimitExhausted) {
    job.state = RunState::Timeout;
    return;
  }
  job.bounds_checked = nominal.checked;
  job.violations = std::move(nominal.sim.bound_violations);

  // Degradation sweep.  Under faults the bounds need not hold; we record
  // what actually broke (and how badly) per scenario.
  for (std::size_t si = 0; si < spec.scenarios.size(); ++si) {
    cancel.throw_if_cancelled();
    sim::FaultSpec scenario = spec.scenarios[si];
    scenario.seed = scenario_seed(scenario, spec.campaign_seed, job.job_index, si);
    const sim::SimResult faulted = sim::simulate(
        sys.app, sys.platform, nominal.config, run.eval.mcs.schedule, sim_options,
        scenario);
    job.scenarios.push_back(summarize(scenario, sys.app, run.eval.mcs.analysis, faulted));
    if (faulted.status == sim::SimStatus::EventLimitExhausted) {
      job.state = RunState::Timeout;
    }
  }
}

}  // namespace

NominalRun simulate_nominal(const model::Application& app,
                            const arch::Platform& platform,
                            const core::Candidate& candidate,
                            const core::Evaluation& eval,
                            const sim::SimOptions& options) {
  NominalRun run{candidate.to_config(app), {}, false, {}};
  for (std::size_t pi = 0; pi < app.num_processes(); ++pi) {
    run.config.set_process_offset(
        util::ProcessId(static_cast<util::ProcessId::underlying_type>(pi)),
        eval.mcs.analysis.process_offsets[pi]);
  }
  // Fault-free WCET run: every simulated instant must respect its
  // analytic bound; any exceedance is a soundness bug in the analysis.
  run.sim = sim::simulate(app, platform, run.config, eval.mcs.schedule, options);
  if (run.sim.status == sim::SimStatus::EventLimitExhausted) {
    run.skip_reason = "fault-free simulation exhausted the event budget";
  } else if (!run.sim.violations.empty()) {
    run.skip_reason = "fault-free run reported configuration violations";
  } else if (run.sim.status != sim::SimStatus::Completed) {
    run.skip_reason = std::string("fault-free run ended ") + sim::to_string(run.sim.status);
  } else {
    run.checked = true;
    sim::check_bounds(app, eval.mcs.analysis, run.sim);
  }
  return run;
}

ValidationSpec parse_validation_spec(std::istream& in) {
  ValidationSpec spec;
  parse_spec(in, kSpecContext, spec, [&spec](const util::KvEntry& e) {
    if (e.key == "strategy") {
      spec.strategy = spec_strategy(e, e.value, kSpecContext);
      if (spec.strategy == Strategy::Sas || spec.strategy == Strategy::Sar) {
        util::kv_fail(kSpecContext, e.line,
                      "strategy must be sf, os or or (the annealing "
                      "strategies need a start candidate)");
      }
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
    } else {
      return false;
    }
    return true;
  });
  return spec;
}

ValidationSpec parse_validation_spec_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("cannot open validation spec: " + path);
  return parse_validation_spec(in);
}

std::uint64_t ValidationJob::signature() const {
  util::Fnv1a h;
  sign(h, *this);
  h.update(static_cast<std::uint64_t>(converged ? 1 : 0));
  h.update(static_cast<std::uint64_t>(schedulable ? 1 : 0));
  h.update(static_cast<std::uint64_t>(bounds_checked ? 1 : 0));
  sign(h, skip_reason);
  for (const sim::BoundViolation& v : violations) {
    sign(h, v.activity);
    h.update(v.simulated);
    h.update(v.bound);
  }
  for (const ScenarioOutcome& s : scenarios) {
    sign(h, s.scenario);
    h.update(static_cast<std::uint64_t>(s.sim_status));
    h.update(s.deadline_misses);
    h.update(s.messages_lost);
    h.update(s.config_violations);
    h.update(static_cast<std::int64_t>(s.faults.total()));
    h.update(s.max_out_can);
    h.update(s.max_out_ttp);
    h.update(s.queue_over_bound);
    h.update(static_cast<std::int64_t>(s.worst_lateness));
  }
  return h.digest();
}

std::size_t ValidationResult::total_violations() const {
  std::size_t total = 0;
  for (const ValidationJob& job : jobs) total += job.violations.size();
  return total;
}

std::uint64_t validation_spec_digest(const ValidationSpec& spec) {
  util::Fnv1a h;
  sign_spec(h, "validation", spec);
  h.update(static_cast<std::uint64_t>(spec.strategy));
  h.update(static_cast<std::uint64_t>(spec.scenarios.size()));
  for (const sim::FaultSpec& f : spec.scenarios) {
    sign(h, f.name);
    h.update(f.seed);
    h.update(std::bit_cast<std::uint64_t>(f.can_drop_p));
    h.update(static_cast<std::int64_t>(f.can_max_retries));
    h.update(std::bit_cast<std::uint64_t>(f.can_delay_p));
    h.update(static_cast<std::int64_t>(f.can_delay_max));
    h.update(std::bit_cast<std::uint64_t>(f.ttp_drop_p));
    h.update(static_cast<std::int64_t>(f.ttp_max_retries));
    h.update(std::bit_cast<std::uint64_t>(f.babble_p));
    h.update(static_cast<std::int64_t>(f.babble_tx));
    h.update(static_cast<std::int64_t>(f.tt_jitter_max));
    h.update(static_cast<std::int64_t>(f.gateway_jitter_max));
    h.update(std::bit_cast<std::uint64_t>(f.bcet_frac));
  }
  h.update(spec.max_sim_events);
  return h.digest();
}

std::string encode_validation_job(const ValidationJob& job) {
  RecordWriter w;
  write_row(w, job);
  w.u64(job.converged ? 1 : 0);
  w.u64(job.schedulable ? 1 : 0);
  w.u64(job.bounds_checked ? 1 : 0);
  w.str(job.skip_reason);
  w.u64(job.violations.size());
  for (const sim::BoundViolation& v : job.violations) {
    w.str(v.activity);
    w.i64(v.simulated);
    w.i64(v.bound);
  }
  w.u64(job.scenarios.size());
  for (const ScenarioOutcome& s : job.scenarios) {
    w.str(s.scenario);
    w.u64(static_cast<std::uint64_t>(s.sim_status));
    w.i64(s.deadline_misses);
    w.i64(s.messages_lost);
    w.i64(s.config_violations);
    for (const std::int64_t* n : fault_fields(s.faults)) w.i64(*n);
    w.i64(s.max_out_can);
    w.i64(s.max_out_ttp);
    w.i64(s.queue_over_bound);
    w.i64(static_cast<std::int64_t>(s.worst_lateness));
  }
  return w.take();
}

ValidationJob decode_validation_job(const std::string& payload) {
  RecordReader r(payload);
  ValidationJob job;
  read_row(r, job);
  job.converged = r.u64() != 0;
  job.schedulable = r.u64() != 0;
  job.bounds_checked = r.u64() != 0;
  job.skip_reason = r.str();
  job.violations.resize(r.count());
  for (sim::BoundViolation& v : job.violations) {
    v.activity = r.str();
    v.simulated = r.i64();
    v.bound = r.i64();
  }
  job.scenarios.resize(r.count());
  for (ScenarioOutcome& s : job.scenarios) {
    s.scenario = r.str();
    const std::uint64_t status = r.u64();
    if (status > static_cast<std::uint64_t>(sim::SimStatus::Stalled)) {
      throw JournalError("record holds invalid simulation status " +
                         std::to_string(status));
    }
    s.sim_status = static_cast<sim::SimStatus>(status);
    s.deadline_misses = r.i64();
    s.messages_lost = r.i64();
    s.config_violations = r.i64();
    for (std::int64_t* n : fault_fields(s.faults)) *n = r.i64();
    s.max_out_can = r.i64();
    s.max_out_ttp = r.i64();
    s.queue_over_bound = r.i64();
    s.worst_lateness = static_cast<util::Time>(r.i64());
  }
  if (!r.exhausted()) throw JournalError("record holds trailing bytes");
  return job;
}

ValidationResult run_validation(const ValidationSpec& spec, const RunOptions& options) {
  // Graceful degradation via the suite driver: a throwing job becomes a
  // `failed` row, a deadline overrun a `timeout` row — never an abort
  // (same contract as run_campaign).
  const JournalCodec<ValidationJob> codec{validation_spec_digest(spec),
                                          encode_validation_job,
                                          decode_validation_job};
  return run_suite<ValidationResult>(
      spec, options, "validation.job", codec,
      [&spec](auto&... args) { run_job(spec, args...); });
}

util::Table ValidationResult::summary_table() const {
  std::vector<std::string> header = {"dimension", "instances", "ok",
                                     "timeout",   "failed",    "checked",
                                     "violations"};
  for (const sim::FaultSpec& scenario : spec.scenarios) {
    header.push_back(scenario.name + " miss");
    header.push_back(scenario.name + " lost");
  }

  struct Cell {
    std::int64_t instances = 0, ok = 0, timeout = 0, failed = 0;
    std::int64_t checked = 0, violations = 0;
    std::vector<std::int64_t> misses, lost;
  };
  std::map<std::size_t, Cell> by_dimension;
  for (const ValidationJob& job : jobs) {
    Cell& cell = by_dimension[job.dimension];
    cell.misses.resize(spec.scenarios.size());
    cell.lost.resize(spec.scenarios.size());
    ++cell.instances;
    switch (job.state) {
      case RunState::Done: ++cell.ok; break;
      case RunState::Timeout: ++cell.timeout; break;
      case RunState::Failed: ++cell.failed; break;
      case RunState::Pending: break;  // instances - (ok+timeout+failed)
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
  write_json_spec_keys(out, "validation", spec);
  out << "  \"strategy\": \"" << to_string(spec.strategy) << "\",\n"
      << "  \"scenarios\": [";
  for (std::size_t i = 0; i < spec.scenarios.size(); ++i) {
    out << (i ? ", " : "") << "\"" << json_escape(spec.scenarios[i].name) << "\"";
  }
  out << "],\n";
  write_json_run_keys(out, result.workers, result.interrupted(), result.resumed_jobs,
                      result.wall_seconds, result.signature());
  out << "  \"totals\": {\"jobs\": " << result.jobs.size() << ", \"ok\": "
      << result.count(RunState::Done) << ", \"timeout\": "
      << result.count(RunState::Timeout) << ", \"failed\": "
      << result.count(RunState::Failed) << ", \"pending\": "
      << result.count(RunState::Pending) << ", \"bound_violations\": "
      << result.total_violations() << "},\n  \"jobs\": [\n";

  for (std::size_t ji = 0; ji < result.jobs.size(); ++ji) {
    const ValidationJob& job = result.jobs[ji];
    write_json_job_identity(out, job);
    out << ", \"status\": \"" << status_name(job.state) << "\", \"error\": \""
        << json_escape(job.error)
        << "\", \"converged\": " << (job.converged ? "true" : "false")
        << ", \"schedulable\": " << (job.schedulable ? "true" : "false")
        << ", \"checked\": " << (job.bounds_checked ? "true" : "false")
        << ", \"skip_reason\": \"" << json_escape(job.skip_reason) << "\"";
    write_json_job_metrics(out, job);
    out << "\"violations\": [";
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

MetricsSnapshot metrics_snapshot(const ValidationResult& result) {
  MetricsSnapshot s = suite_metrics(result);
  bool simulated = false;
  std::array<std::uint64_t, kFaultFieldNames.size()> faults{};
  for (const ValidationJob& job : result.jobs) {
    for (const ScenarioOutcome& scenario : job.scenarios) {
      simulated = true;
      const auto fields = fault_fields(scenario.faults);
      for (std::size_t f = 0; f < faults.size(); ++f) {
        faults[f] += static_cast<std::uint64_t>(*fields[f]);
      }
    }
  }
  if (!simulated) return s;
  for (std::size_t f = 0; f < faults.size(); ++f) {
    s[std::string("sim.faults.") + kFaultFieldNames[f]] = MetricValue::counter(faults[f]);
  }
  return s;
}

void write_csv(const ValidationResult& result, std::ostream& out) {
  out << "validation,job,dimension,replica,system_seed,processes,messages,"
         "status,error,converged,schedulable,checked,skip_reason,"
         "violations,"
         "scenario,sim_status,deadline_misses,messages_lost,config_violations,"
         "faults_injected,max_out_can,max_out_ttp,queue_over_bound,"
         "worst_lateness,evals,delta_replays,seconds\n";
  const std::string name = csv_escape(result.spec.name);
  for (const ValidationJob& job : result.jobs) {
    const auto prefix = [&]() -> std::ostream& {
      write_csv_job_identity(out, name, job);
      return out << ',' << status_name(job.state) << ','
                 << csv_escape(job.error) << ',' << (job.converged ? 1 : 0) << ','
                 << (job.schedulable ? 1 : 0) << ',' << (job.bounds_checked ? 1 : 0)
                 << ',' << csv_escape(job.skip_reason) << ',' << job.violations.size();
    };
    // The fault-free row, then one row per fault scenario.
    prefix() << ",nominal,-,0,0,0,0,0,0,0,0";
    write_csv_job_metrics(out, job, job.seconds);
    for (const ScenarioOutcome& s : job.scenarios) {
      prefix() << ',' << csv_escape(s.scenario) << ',' << sim::to_string(s.sim_status)
               << ',' << s.deadline_misses << ',' << s.messages_lost << ','
               << s.config_violations << ',' << s.faults.total() << ','
               << s.max_out_can << ',' << s.max_out_ttp << ',' << s.queue_over_bound
               << ',' << static_cast<std::int64_t>(s.worst_lateness);
      write_csv_job_metrics(out, job, job.seconds);
    }
  }
}

}  // namespace mcs::exp
