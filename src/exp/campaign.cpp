#include "mcs/exp/campaign.hpp"

#include <fstream>
#include <map>
#include <ostream>
#include <stdexcept>

#include "mcs/core/simulated_annealing.hpp"
#include "mcs/exp/suite_driver.hpp"
#include "mcs/util/stats.hpp"

namespace mcs::exp {

namespace {

constexpr const char* kSpecContext = "campaign spec";

/// Runs the spec's strategies on one generated instance.
void run_job(const CampaignSpec& spec, const gen::GeneratedSystem& sys, JobResult& job,
             MetricsSnapshot& engine, const util::CancelToken& cancel) {
  job.inter_cluster_messages = sys.inter_cluster_messages;
  JobSynthesis synthesis(sys, spec, cancel);

  // Annealing starts from the best candidate produced so far (the Figure 9
  // setup: SAS refines OS, SAR refines OR), falling back to the initial
  // straightforward genotype when no earlier strategy ran.
  core::Candidate sa_start = core::Candidate::initial(sys.app, sys.platform);

  for (std::size_t si = 0; si < spec.strategies.size(); ++si) {
    cancel.throw_if_cancelled();
    const Strategy strategy = spec.strategies[si];
    StrategyOutcome outcome;
    outcome.strategy = strategy;
    const auto start = std::chrono::steady_clock::now();

    if (strategy == Strategy::Sas || strategy == Strategy::Sar) {
      // Optionally skip the expensive annealing when the strategy it
      // refines already failed (the Figure 9b/9c setup).  Conditioned
      // only on the previous outcome's deterministic fields.
      if (!spec.anneal_unschedulable_starts && !job.outcomes.empty() &&
          !job.outcomes.back().schedulable) {
        outcome.skipped = true;
      } else {
        core::SaOptions sa;
        sa.objective = strategy == Strategy::Sas ? core::SaObjective::Schedulability
                                                 : core::SaObjective::BufferSize;
        sa.max_evaluations = spec.budgets.sa_max_evaluations;
        // No wall-clock budget: a time limit would make the trajectory —
        // and thus the result — depend on machine load (DESIGN.md §4).
        sa.max_milliseconds = 0;
        sa.cancel = &cancel;
        sa.seed = derive_seed(spec.campaign_seed, job.job_index, si);
        const auto sar = core::simulated_annealing(synthesis.ctx(), sa_start, sa);
        outcome.schedulable = sar.best_eval.schedulable;
        outcome.delta = sar.best_eval.delta;
        outcome.s_total = sar.best_eval.s_total;
        outcome.evaluations = sar.evaluations;
      }
    } else {
      StrategyRun run = synthesis.step(strategy);
      outcome.schedulable = run.eval.schedulable;
      outcome.delta = run.eval.delta;
      outcome.s_total = run.eval.s_total;
      outcome.s_total_before = run.s_total_before;
      outcome.evaluations = run.evaluations;
      sa_start = std::move(run.best);
    }

    outcome.seconds = seconds_since(start);
    job.evals += static_cast<std::uint64_t>(outcome.evaluations);
    job.outcomes.push_back(outcome);
  }
  synthesis.record_counters(job, engine);
}

/// The deviation metric a strategy is compared on: buffer campaigns (SAR
/// reference) compare s_total, schedulability campaigns (SAS) delta.
[[nodiscard]] double metric_of(const StrategyOutcome& outcome, Strategy reference) {
  return reference == Strategy::Sar ? static_cast<double>(outcome.s_total)
                                    : static_cast<double>(outcome.delta.delta());
}

/// Index into spec.strategies of the annealing reference, or npos.
[[nodiscard]] std::size_t reference_index(const std::vector<Strategy>& strategies) {
  for (std::size_t i = strategies.size(); i > 0; --i) {
    if (strategies[i - 1] == Strategy::Sas || strategies[i - 1] == Strategy::Sar) {
      return i - 1;
    }
  }
  return std::string::npos;
}

}  // namespace

CampaignSpec parse_campaign_spec(std::istream& in) {
  CampaignSpec spec;
  parse_spec(in, kSpecContext, spec, [&spec](const util::KvEntry& e) {
    if (e.key == "strategies") {
      spec.strategies.clear();
      for (const std::string& item : util::kv_list(e, kSpecContext)) {
        spec.strategies.push_back(spec_strategy(e, item, kSpecContext));
      }
    } else if (e.key == "anneal_unschedulable_starts") {
      spec.anneal_unschedulable_starts = util::kv_bool(e, kSpecContext);
    } else {
      return false;
    }
    return true;
  });
  return spec;
}

CampaignSpec parse_campaign_spec_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("cannot open campaign spec: " + path);
  return parse_campaign_spec(in);
}

std::uint64_t derive_seed(std::uint64_t campaign_seed, std::size_t job_index,
                          std::size_t strategy_index) {
  util::Fnv1a h;
  h.update(campaign_seed);
  h.update(static_cast<std::uint64_t>(job_index));
  h.update(static_cast<std::uint64_t>(strategy_index));
  return h.digest();
}

std::uint64_t JobResult::signature() const {
  util::Fnv1a h;
  sign(h, *this);
  for (const StrategyOutcome& o : outcomes) {
    h.update(static_cast<std::uint64_t>(o.strategy));
    h.update(static_cast<std::uint64_t>(o.schedulable ? 1 : 0));
    h.update(static_cast<std::uint64_t>(o.skipped ? 1 : 0));
    h.update(static_cast<std::int64_t>(o.delta.f1));
    h.update(static_cast<std::int64_t>(o.delta.f2));
    h.update(o.s_total);
    h.update(o.s_total_before);
  }
  return h.digest();
}

std::uint64_t campaign_spec_digest(const CampaignSpec& spec) {
  util::Fnv1a h;
  sign_spec(h, "campaign", spec);
  h.update(static_cast<std::uint64_t>(spec.strategies.size()));
  for (const Strategy s : spec.strategies) h.update(static_cast<std::uint64_t>(s));
  h.update(static_cast<std::uint64_t>(spec.anneal_unschedulable_starts ? 1 : 0));
  return h.digest();
}

std::string encode_job_result(const JobResult& job) {
  RecordWriter w;
  write_row(w, job);
  w.u64(job.inter_cluster_messages);
  w.u64(job.outcomes.size());
  for (const StrategyOutcome& o : job.outcomes) {
    w.u64(static_cast<std::uint64_t>(o.strategy));
    w.u64(o.schedulable ? 1 : 0);
    w.u64(o.skipped ? 1 : 0);
    w.i64(static_cast<std::int64_t>(o.delta.f1));
    w.i64(static_cast<std::int64_t>(o.delta.f2));
    w.i64(o.s_total);
    w.i64(o.s_total_before);
    w.i64(o.evaluations);
    w.f64(o.seconds);
  }
  return w.take();
}

JobResult decode_job_result(const std::string& payload) {
  RecordReader r(payload);
  JobResult job;
  read_row(r, job);
  job.inter_cluster_messages = static_cast<std::size_t>(r.u64());
  job.outcomes.resize(r.count());
  for (StrategyOutcome& o : job.outcomes) {
    const std::uint64_t strategy = r.u64();
    if (strategy > static_cast<std::uint64_t>(Strategy::Sar)) {
      throw JournalError("record holds invalid strategy " + std::to_string(strategy));
    }
    o.strategy = static_cast<Strategy>(strategy);
    o.schedulable = r.u64() != 0;
    o.skipped = r.u64() != 0;
    o.delta.f1 = static_cast<util::Time>(r.i64());
    o.delta.f2 = static_cast<util::Time>(r.i64());
    o.s_total = r.i64();
    o.s_total_before = r.i64();
    o.evaluations = static_cast<int>(r.i64());
    o.seconds = r.f64();
  }
  if (!r.exhausted()) throw JournalError("record holds trailing bytes");
  return job;
}

CampaignResult run_campaign(const CampaignSpec& spec, const RunOptions& options) {
  const JournalCodec<JobResult> codec{campaign_spec_digest(spec), encode_job_result,
                                      decode_job_result};
  return run_suite<CampaignResult>(
      spec, options, "campaign.job", codec,
      [&spec](auto&... args) { run_job(spec, args...); });
}

util::Table CampaignResult::summary_table() const {
  const std::size_t ref = reference_index(spec.strategies);

  std::vector<std::string> header = {"dimension", "instances"};
  for (std::size_t si = 0; si < spec.strategies.size(); ++si) {
    const std::string name = to_string(spec.strategies[si]);
    header.push_back(name + " sched");
    header.push_back(name + " avg delta");
    header.push_back(name + " avg s_total");
    if (ref != std::string::npos && si != ref) header.push_back(name + " dev%");
  }

  struct Cell {
    int schedulable = 0;
    util::Accumulator delta, s_total, deviation;
  };
  std::map<std::size_t, std::vector<Cell>> by_dimension;
  std::map<std::size_t, int> instances;

  for (const JobResult& job : jobs) {
    auto& cells = by_dimension[job.dimension];
    cells.resize(spec.strategies.size());
    ++instances[job.dimension];
    for (std::size_t si = 0; si < job.outcomes.size(); ++si) {
      const StrategyOutcome& o = job.outcomes[si];
      Cell& cell = cells[si];
      if (!o.schedulable) continue;
      ++cell.schedulable;
      cell.delta.add(static_cast<double>(o.delta.delta()));
      cell.s_total.add(static_cast<double>(o.s_total));
      if (ref != std::string::npos && si != ref &&
          job.outcomes[ref].schedulable) {
        const Strategy reference = spec.strategies[ref];
        cell.deviation.add(util::percentage_deviation(
            metric_of(o, reference), metric_of(job.outcomes[ref], reference)));
      }
    }
  }

  util::Table table(header);
  for (const auto& [dimension, cells] : by_dimension) {
    std::vector<std::string> row = {
        util::Table::fmt(static_cast<std::int64_t>(dimension)),
        util::Table::fmt(static_cast<std::int64_t>(instances.at(dimension)))};
    for (std::size_t si = 0; si < cells.size(); ++si) {
      const Cell& cell = cells[si];
      row.push_back(util::Table::fmt(static_cast<std::int64_t>(cell.schedulable)));
      row.push_back(cell.delta.count() ? util::Table::fmt(cell.delta.mean(), 1) : "-");
      row.push_back(cell.s_total.count() ? util::Table::fmt(cell.s_total.mean(), 0)
                                         : "-");
      if (ref != std::string::npos && si != ref) {
        row.push_back(cell.deviation.count()
                          ? util::Table::fmt(cell.deviation.mean(), 1)
                          : "-");
      }
    }
    table.add_row(row);
  }
  return table;
}

void write_json(const CampaignResult& result, std::ostream& out) {
  const CampaignSpec& spec = result.spec;
  write_json_spec_keys(out, "campaign", spec);
  out << "  \"strategies\": [";
  for (std::size_t i = 0; i < spec.strategies.size(); ++i) {
    out << (i ? ", " : "") << "\"" << to_string(spec.strategies[i]) << "\"";
  }
  out << "],\n";
  write_json_run_keys(out, result.workers, result.interrupted(), result.resumed_jobs,
                      result.wall_seconds, result.signature());

  // Campaign-wide runtime percentiles per strategy (wall clock, thus the
  // one section that legitimately varies between runs).
  out << "  \"runtime_percentiles\": {\n";
  for (std::size_t si = 0; si < spec.strategies.size(); ++si) {
    std::vector<double> seconds;
    for (const JobResult& job : result.jobs) {
      if (si < job.outcomes.size()) seconds.push_back(job.outcomes[si].seconds);
    }
    // util::percentile returns 0.0 on empty input (zero-job campaigns).
    const auto pct = [&seconds](double p) { return util::percentile(seconds, p); };
    out << "    \"" << to_string(spec.strategies[si]) << "\": {\"p50\": "
        << pct(50) << ", \"p90\": " << pct(90) << ", \"max\": " << pct(100)
        << "}" << (si + 1 < spec.strategies.size() ? "," : "") << "\n";
  }
  out << "  },\n  \"jobs\": [\n";

  for (std::size_t ji = 0; ji < result.jobs.size(); ++ji) {
    const JobResult& job = result.jobs[ji];
    write_json_job_identity(out, job);
    out << ", \"inter_cluster_messages\": " << job.inter_cluster_messages
        << ", \"state\": \"" << to_string(job.state) << "\""
        << ", \"failed\": " << (job.failed() ? "true" : "false")
        << ", \"error\": \"" << json_escape(job.error) << "\"";
    write_json_job_metrics(out, job);
    out << "\"outcomes\": [";
    for (std::size_t si = 0; si < job.outcomes.size(); ++si) {
      const StrategyOutcome& o = job.outcomes[si];
      out << (si ? ",\n       " : "\n       ") << "{\"strategy\": \""
          << to_string(o.strategy) << "\", \"schedulable\": "
          << (o.schedulable ? "true" : "false") << ", \"skipped\": "
          << (o.skipped ? "true" : "false") << ", \"delta_f1\": "
          << o.delta.f1 << ", \"delta_f2\": " << o.delta.f2
          << ", \"s_total\": " << o.s_total << ", \"s_total_before\": "
          << o.s_total_before << ", \"evaluations\": " << o.evaluations
          << ", \"seconds\": " << o.seconds << "}";
    }
    out << "]}" << (ji + 1 < result.jobs.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

MetricsSnapshot metrics_snapshot(const CampaignResult& result) {
  MetricsSnapshot s = suite_metrics(result);
  for (const JobResult& job : result.jobs) {
    for (const StrategyOutcome& o : job.outcomes) {
      if (!o.skipped && (o.strategy == Strategy::Sas || o.strategy == Strategy::Sar)) {
        merge(s, {{"sa.evaluations", MetricValue::counter(
                                         static_cast<std::uint64_t>(o.evaluations))}});
      }
    }
  }
  return s;
}

void write_csv(const CampaignResult& result, std::ostream& out) {
  out << "campaign,job,dimension,replica,system_seed,processes,messages,"
         "inter_cluster_messages,strategy,schedulable,skipped,state,"
         "error,delta_f1,delta_f2,s_total,s_total_before,evaluations,"
         "evals,delta_replays,seconds\n";
  const std::string name = csv_escape(result.spec.name);
  for (const JobResult& job : result.jobs) {
    const auto prefix = [&]() -> std::ostream& {
      write_csv_job_identity(out, name, job);
      return out << ',' << job.inter_cluster_messages;
    };
    if (job.state != RunState::Done) {
      // One row per degraded job (timeout/failed/pending) so the
      // disposition is visible in the report.
      prefix() << ",-,0,0," << to_string(job.state) << ','
               << csv_escape(job.error) << ",0,0,0,0,0";
      write_csv_job_metrics(out, job, job.seconds);
      continue;
    }
    for (const StrategyOutcome& o : job.outcomes) {
      prefix() << ',' << to_string(o.strategy) << ',' << (o.schedulable ? 1 : 0) << ','
               << (o.skipped ? 1 : 0) << ',' << to_string(job.state) << ','
               << csv_escape(job.error) << ',' << o.delta.f1
               << ',' << o.delta.f2 << ',' << o.s_total << ',' << o.s_total_before
               << ',' << o.evaluations;
      write_csv_job_metrics(out, job, o.seconds);
    }
  }
}

}  // namespace mcs::exp
