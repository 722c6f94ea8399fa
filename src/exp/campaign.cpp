#include "mcs/exp/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

#include <optional>

#include "mcs/core/optimize_resources.hpp"
#include "mcs/core/simulated_annealing.hpp"
#include "mcs/core/straightforward.hpp"
#include "mcs/exp/journal.hpp"
#include "mcs/gen/generator.hpp"
#include "mcs/obs/export.hpp"
#include "mcs/obs/trace.hpp"
#include "mcs/util/hash.hpp"
#include "mcs/util/kv_parse.hpp"
#include "mcs/util/stats.hpp"
#include "mcs/util/thread_pool.hpp"

namespace mcs::exp {

namespace {

constexpr const char* kSpecContext = "campaign spec";

[[nodiscard]] double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

[[nodiscard]] std::vector<Strategy> parse_strategies(const util::KvEntry& e) {
  std::vector<Strategy> strategies;
  for (const std::string& item : util::kv_list(e, kSpecContext)) {
    try {
      strategies.push_back(parse_strategy(item));
    } catch (const std::invalid_argument& err) {
      util::kv_fail(kSpecContext, e.line, err.what());
    }
  }
  return strategies;
}

/// Runs the spec's strategies on one generated instance.  Everything
/// mutable — the generated system, the MoveContext with its
/// AnalysisWorkspace and EvaluationCache, the SA RNG — is local to this
/// call and therefore to the one worker thread executing it.
[[nodiscard]] JobResult run_job(const CampaignSpec& spec,
                                const gen::SuitePoint& point,
                                std::size_t job_index,
                                const util::CancelToken& cancel) {
  const obs::Span job_span("campaign.job", static_cast<std::uint64_t>(job_index));
  const auto job_start = std::chrono::steady_clock::now();
  JobResult job;
  job.job_index = job_index;
  job.dimension = point.dimension;
  job.replica = point.replica;
  job.system_seed = point.params.seed;

  const gen::GeneratedSystem sys = gen::generate(point.params);
  job.processes = sys.app.num_processes();
  job.messages = sys.app.num_messages();
  job.inter_cluster_messages = sys.inter_cluster_messages;

  const core::MoveContext ctx(sys.app, sys.platform, spec.mcs_options());

  core::OptimizeScheduleOptions os_options;
  os_options.hopa.max_iterations = spec.budgets.hopa_iterations;
  os_options.cancel = &cancel;
  core::OptimizeResourcesOptions or_options;
  or_options.schedule = os_options;
  or_options.max_seed_starts = spec.budgets.or_max_seed_starts;
  or_options.max_climb_iterations = spec.budgets.or_max_climb_iterations;
  or_options.neighbors_per_step = spec.budgets.or_neighbors_per_step;

  // Annealing starts from the best candidate produced so far (the bench
  // setup: SAS refines OS, SAR refines OR), falling back to the initial
  // straightforward genotype when no earlier strategy ran.
  core::Candidate sa_start = core::Candidate::initial(sys.app, sys.platform);
  // OR's step 1 is OS under the same options on the same ctx, so an OS
  // result already computed for this job is handed to OR, not recomputed.
  std::optional<core::OptimizeScheduleResult> os_result;

  for (std::size_t si = 0; si < spec.strategies.size(); ++si) {
    cancel.throw_if_cancelled();
    const Strategy strategy = spec.strategies[si];
    StrategyOutcome outcome;
    outcome.strategy = strategy;
    const auto start = std::chrono::steady_clock::now();

    switch (strategy) {
      case Strategy::Sf: {
        const auto sf = core::straightforward(ctx);
        outcome.schedulable = sf.evaluation.schedulable;
        outcome.delta = sf.evaluation.delta;
        outcome.s_total = sf.evaluation.s_total;
        outcome.evaluations = 1;
        sa_start = sf.candidate;
        break;
      }
      case Strategy::Os: {
        const auto& os = os_result.emplace(core::optimize_schedule(ctx, os_options));
        outcome.schedulable = os.best_eval.schedulable;
        outcome.delta = os.best_eval.delta;
        outcome.s_total = os.best_eval.s_total;
        outcome.evaluations = os.evaluations;
        sa_start = os.best;
        break;
      }
      case Strategy::Or: {
        const auto orr = os_result
                             ? core::optimize_resources(ctx, *os_result, or_options)
                             : core::optimize_resources(ctx, or_options);
        outcome.schedulable = orr.best_eval.schedulable;
        outcome.delta = orr.best_eval.delta;
        outcome.s_total = orr.best_eval.s_total;
        outcome.s_total_before = orr.s_total_before;
        outcome.evaluations = orr.evaluations;
        sa_start = orr.best;
        break;
      }
      case Strategy::Sas:
      case Strategy::Sar: {
        // Optionally skip the expensive annealing when the strategy it
        // refines already failed (the Figure 9b/9c setup).  Conditioned
        // only on the previous outcome's deterministic fields.
        if (!spec.anneal_unschedulable_starts && !job.outcomes.empty() &&
            !job.outcomes.back().schedulable) {
          outcome.skipped = true;
          break;
        }
        core::SaOptions sa;
        sa.objective = strategy == Strategy::Sas ? core::SaObjective::Schedulability
                                                 : core::SaObjective::BufferSize;
        sa.max_evaluations = spec.budgets.sa_max_evaluations;
        // No wall-clock budget: a time limit would make the trajectory —
        // and thus the result — depend on machine load (DESIGN.md §4).
        sa.max_milliseconds = 0;
        sa.cancel = &cancel;
        sa.seed = derive_seed(spec.campaign_seed, job_index, si);
        const auto sar = core::simulated_annealing(ctx, sa_start, sa);
        outcome.schedulable = sar.best_eval.schedulable;
        outcome.delta = sar.best_eval.delta;
        outcome.s_total = sar.best_eval.s_total;
        outcome.evaluations = sar.evaluations;
        break;
      }
    }

    outcome.seconds = seconds_since(start);
    job.outcomes.push_back(outcome);
  }

  // Per-job engine metrics: every field is a pure function of the job's
  // inputs (the workspace and cache are job-local), so they go INTO the
  // determinism signature rather than being carved out of it.
  for (const StrategyOutcome& o : job.outcomes) {
    job.evals += static_cast<std::uint64_t>(o.evaluations);
  }
  job.cache_hits = ctx.evaluation_cache().hits();
  job.cache_lookups = ctx.evaluation_cache().hits() + ctx.evaluation_cache().misses();
  job.delta_fallbacks = ctx.workspace().delta_stats().fallbacks;
  obs::publish_workspace(ctx.workspace(), ctx.evaluation_cache().hits(),
                         ctx.evaluation_cache().misses(),
                         core::kernel_name(spec.mcs_options().analysis.kernel));

  job.seconds = seconds_since(job_start);
  return job;
}

/// Report row for a job that did not complete (timeout / failed / shed /
/// pending): identification comes from the suite point (so the row is
/// still attributable and replayable), the outcome fields stay empty.
[[nodiscard]] JobResult degraded_job(const gen::SuitePoint& point,
                                     std::size_t job_index,
                                     const JobDisposition& disposition) {
  JobResult job;
  job.job_index = job_index;
  job.dimension = point.dimension;
  job.replica = point.replica;
  job.system_seed = point.params.seed;
  job.state = disposition.state;
  job.attempts = disposition.attempts;
  job.error = disposition.error;
  return job;
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

void update_signature(util::Fnv1a& h, const std::string& s) {
  h.update(static_cast<std::uint64_t>(s.size()));
  for (const char c : s) h.update_byte(static_cast<std::uint8_t>(c));
}

void update_signature(util::Fnv1a& h, const JobResult& job) {
  h.update(static_cast<std::uint64_t>(job.job_index));
  h.update(static_cast<std::uint64_t>(job.dimension));
  h.update(static_cast<std::uint64_t>(job.replica));
  h.update(job.system_seed);
  h.update(static_cast<std::uint64_t>(job.processes));
  h.update(static_cast<std::uint64_t>(job.messages));
  h.update(static_cast<std::uint64_t>(job.inter_cluster_messages));
  for (const StrategyOutcome& o : job.outcomes) {
    h.update(static_cast<std::uint64_t>(o.strategy));
    h.update(static_cast<std::uint64_t>(o.schedulable ? 1 : 0));
    h.update(static_cast<std::uint64_t>(o.skipped ? 1 : 0));
    h.update(static_cast<std::int64_t>(o.delta.f1));
    h.update(static_cast<std::int64_t>(o.delta.f2));
    h.update(o.s_total);
    h.update(o.s_total_before);
    h.update(static_cast<std::int64_t>(o.evaluations));
  }
  h.update(static_cast<std::uint64_t>(job.state));
  h.update(static_cast<std::uint64_t>(job.attempts));
  update_signature(h, job.error);
  h.update(job.evals);
  h.update(job.cache_hits);
  h.update(job.cache_lookups);
  h.update(job.delta_fallbacks);
}

/// Minimal JSON string escaping for the user-controlled spec fields.
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

/// RFC-4180 quoting for the one free-text CSV column (the campaign name).
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

std::string to_string(Strategy strategy) {
  switch (strategy) {
    case Strategy::Sf: return "sf";
    case Strategy::Os: return "os";
    case Strategy::Or: return "or";
    case Strategy::Sas: return "sas";
    case Strategy::Sar: return "sar";
  }
  return "?";
}

Strategy parse_strategy(const std::string& name) {
  if (name == "sf") return Strategy::Sf;
  if (name == "os") return Strategy::Os;
  if (name == "or") return Strategy::Or;
  if (name == "sas") return Strategy::Sas;
  if (name == "sar") return Strategy::Sar;
  throw std::invalid_argument("unknown strategy '" + name +
                              "' (expected sf, os, or, sas or sar)");
}

core::McsOptions CampaignSpec::mcs_options() const {
  core::McsOptions options;
  options.analysis.offset_pruning = !conservative;
  options.analysis.ttp_queue_model =
      paper_ttp ? core::TtpQueueModel::PaperFormula : core::TtpQueueModel::Exact;
  return options;
}

CampaignSpec parse_campaign_spec(std::istream& in) {
  CampaignSpec spec;
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
    } else if (e.key == "strategies") {
      spec.strategies = parse_strategies(e);
    } else if (e.key == "conservative") {
      spec.conservative = util::kv_bool(e, kSpecContext);
    } else if (e.key == "paper_ttp") {
      spec.paper_ttp = util::kv_bool(e, kSpecContext);
    } else if (e.key == "anneal_unschedulable_starts") {
      spec.anneal_unschedulable_starts = util::kv_bool(e, kSpecContext);
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
  update_signature(h, *this);
  return h.digest();
}

std::uint64_t CampaignResult::signature() const {
  util::Fnv1a h;
  for (const JobResult& job : jobs) update_signature(h, job);
  return h.digest();
}

std::uint64_t campaign_spec_digest(const CampaignSpec& spec) {
  util::Fnv1a h;
  update_signature(h, spec.suite);
  h.update(static_cast<std::uint64_t>(spec.seeds_per_dim));
  h.update(spec.suite_base_seed);
  h.update(spec.campaign_seed);
  h.update(static_cast<std::uint64_t>(spec.strategies.size()));
  for (const Strategy s : spec.strategies) h.update(static_cast<std::uint64_t>(s));
  h.update(static_cast<std::uint64_t>(spec.conservative ? 1 : 0));
  h.update(static_cast<std::uint64_t>(spec.paper_ttp ? 1 : 0));
  h.update(static_cast<std::uint64_t>(spec.anneal_unschedulable_starts ? 1 : 0));
  h.update(static_cast<std::int64_t>(spec.budgets.sa_max_evaluations));
  h.update(static_cast<std::int64_t>(spec.budgets.hopa_iterations));
  h.update(static_cast<std::uint64_t>(spec.budgets.or_max_seed_starts));
  h.update(static_cast<std::int64_t>(spec.budgets.or_max_climb_iterations));
  h.update(static_cast<std::uint64_t>(spec.budgets.or_neighbors_per_step));
  h.update(spec.job_timeout_ms);
  h.update(static_cast<std::int64_t>(spec.max_retries));
  h.update(static_cast<std::uint64_t>(spec.queue_limit));
  return h.digest();
}

std::string encode_job_result(const JobResult& job) {
  RecordWriter w;
  w.u64(job.job_index);
  w.u64(job.dimension);
  w.u64(job.replica);
  w.u64(job.system_seed);
  w.u64(job.processes);
  w.u64(job.messages);
  w.u64(job.inter_cluster_messages);
  w.u64(static_cast<std::uint64_t>(job.state));
  w.i64(job.attempts);
  w.str(job.error);
  w.f64(job.seconds);
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
  // Per-job metrics (appended last: the codec is sequential, so new
  // fields always go at the end of the payload).
  w.u64(job.evals);
  w.u64(job.cache_hits);
  w.u64(job.cache_lookups);
  w.u64(job.delta_fallbacks);
  return w.take();
}

JobResult decode_job_result(const std::string& payload) {
  RecordReader r(payload);
  JobResult job;
  job.job_index = static_cast<std::size_t>(r.u64());
  job.dimension = static_cast<std::size_t>(r.u64());
  job.replica = static_cast<std::size_t>(r.u64());
  job.system_seed = r.u64();
  job.processes = static_cast<std::size_t>(r.u64());
  job.messages = static_cast<std::size_t>(r.u64());
  job.inter_cluster_messages = static_cast<std::size_t>(r.u64());
  const std::uint64_t state = r.u64();
  if (state > static_cast<std::uint64_t>(RunState::Pending)) {
    throw JournalError("record holds invalid job state " + std::to_string(state));
  }
  job.state = static_cast<RunState>(state);
  job.attempts = static_cast<int>(r.i64());
  job.error = r.str();
  job.seconds = r.f64();
  const std::uint64_t outcomes = r.u64();
  if (outcomes > 64) {
    throw JournalError("record holds implausible outcome count " +
                       std::to_string(outcomes));
  }
  job.outcomes.reserve(static_cast<std::size_t>(outcomes));
  for (std::uint64_t i = 0; i < outcomes; ++i) {
    StrategyOutcome o;
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
    job.outcomes.push_back(o);
  }
  job.evals = r.u64();
  job.cache_hits = r.u64();
  job.cache_lookups = r.u64();
  job.delta_fallbacks = r.u64();
  return job;
}

CampaignResult run_campaign(const CampaignSpec& spec) {
  return run_campaign(spec, CampaignRunOptions{});
}

CampaignResult run_campaign(const CampaignSpec& spec,
                            const CampaignRunOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  const auto suite =
      gen::suite_by_name(spec.suite, spec.seeds_per_dim, spec.suite_base_seed);

  CampaignResult result;
  result.spec = spec;
  result.jobs.resize(suite.size());

  // Checkpoint/resume: recover journaled rows first, then hand run_jobs
  // the done[] mask so recovered jobs never re-run.
  std::optional<JournalWriter> journal;
  std::vector<char> done(suite.size(), 0);
  if (!options.journal_path.empty()) {
    const JournalHeader header{1, campaign_spec_digest(spec)};
    if (options.resume) {
      JournalContents recovered;
      journal.emplace(
          JournalWriter::open_or_create(options.journal_path, header, recovered));
      for (const std::string& record : recovered.records) {
        JobResult job = decode_job_result(record);
        if (job.job_index >= suite.size() || done[job.job_index]) {
          throw JournalError("journal record for unexpected job " +
                             std::to_string(job.job_index));
        }
        done[job.job_index] = 1;
        ++result.resumed_jobs;
        result.jobs[job.job_index] = std::move(job);
      }
    } else {
      journal.emplace(JournalWriter::create(options.journal_path, header));
    }
  }

  RuntimeOptions runtime;
  runtime.workers = spec.jobs == 0 ? util::ThreadPool::default_workers() : spec.jobs;
  runtime.job_timeout_ms = spec.job_timeout_ms;
  runtime.max_retries = spec.max_retries;
  runtime.queue_limit = spec.queue_limit;
  runtime.retry_seed = spec.campaign_seed;
  runtime.stop = options.stop;
  runtime.faults = options.faults;

  RuntimeReport report;
  const std::vector<JobDisposition> dispositions = run_jobs(
      runtime, suite.size(),
      [&](std::size_t i, const util::CancelToken& cancel) {
        // Only a completed run_job assigns the slot, so a retried attempt
        // leaves no partial state behind.
        result.jobs[i] = run_job(spec, suite[i], i, cancel);
      },
      options.resume ? &done : nullptr,
      [&](std::size_t i, const JobDisposition& disposition) {
        JobResult& job = result.jobs[i];
        if (disposition.state == RunState::Done) {
          job.state = RunState::Done;
          job.attempts = disposition.attempts;
          // A done-after-retry row keeps the transient reason it overcame.
          job.error = disposition.error;
        } else {
          job = degraded_job(suite[i], i, disposition);
        }
        if (journal) journal->append(encode_job_result(job));
      },
      &report);

  // Jobs the shutdown drain left unfinished (never started, or cancelled
  // mid-attempt with the partial result discarded): attributable `pending`
  // rows, deliberately NOT journaled — --resume re-runs exactly these.
  for (std::size_t i = 0; i < suite.size(); ++i) {
    if (dispositions[i].state != RunState::Pending) continue;
    JobDisposition pending = dispositions[i];
    pending.error = "pending: shutdown requested before the job finished";
    result.jobs[i] = degraded_job(suite[i], i, pending);
  }

  if (journal) {
    journal->sync();
    journal->close();
  }
  result.workers = report.workers;
  result.interrupted = report.interrupted;
  result.wall_seconds = seconds_since(start);
  return result;
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
  out << "{\n  \"campaign\": \"" << json_escape(spec.name) << "\",\n"
      << "  \"suite\": \"" << json_escape(spec.suite) << "\",\n"
      << "  \"seeds_per_dim\": " << spec.seeds_per_dim << ",\n"
      << "  \"campaign_seed\": " << spec.campaign_seed << ",\n"
      << "  \"strategies\": [";
  for (std::size_t i = 0; i < spec.strategies.size(); ++i) {
    out << (i ? ", " : "") << "\"" << to_string(spec.strategies[i]) << "\"";
  }
  out << "],\n  \"workers\": " << result.workers << ",\n"
      << "  \"interrupted\": " << (result.interrupted ? "true" : "false") << ",\n"
      << "  \"resumed_jobs\": " << result.resumed_jobs << ",\n"
      << "  \"wall_seconds\": " << result.wall_seconds << ",\n";
  char sig[32];
  std::snprintf(sig, sizeof sig, "%016llx",
                static_cast<unsigned long long>(result.signature()));
  out << "  \"signature\": \"" << sig << "\",\n";

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
    out << "    {\"job\": " << job.job_index << ", \"dimension\": "
        << job.dimension << ", \"replica\": " << job.replica
        << ", \"system_seed\": " << job.system_seed << ", \"processes\": "
        << job.processes << ", \"messages\": " << job.messages
        << ", \"inter_cluster_messages\": " << job.inter_cluster_messages
        << ", \"state\": \"" << to_string(job.state) << "\""
        << ", \"attempts\": " << job.attempts
        << ", \"failed\": " << (job.failed() ? "true" : "false")
        << ", \"error\": \"" << json_escape(job.error) << "\""
        << ", \"seconds\": " << job.seconds << ",\n     \"metrics\": {\"evals\": "
        << job.evals << ", \"cache_hits\": " << job.cache_hits
        << ", \"cache_lookups\": " << job.cache_lookups
        << ", \"cache_hit_rate\": " << job.cache_hit_rate()
        << ", \"delta_fallbacks\": " << job.delta_fallbacks
        << "},\n     \"outcomes\": [";
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

void write_csv(const CampaignResult& result, std::ostream& out) {
  // The wall-clock column stays LAST: every other column is deterministic,
  // and consumers (including campaign_test.cpp) strip the final column to
  // compare reports across runs and thread counts.
  out << "campaign,job,dimension,replica,system_seed,processes,messages,"
         "inter_cluster_messages,strategy,schedulable,skipped,state,attempts,"
         "error,delta_f1,delta_f2,s_total,s_total_before,evaluations,"
         "evals,cache_hit_rate,delta_fallbacks,seconds\n";
  const std::string name = csv_escape(result.spec.name);
  for (const JobResult& job : result.jobs) {
    const auto prefix = [&](std::ostream& os) -> std::ostream& {
      return os << name << ',' << job.job_index << ',' << job.dimension << ','
                << job.replica << ',' << job.system_seed << ',' << job.processes
                << ',' << job.messages << ',' << job.inter_cluster_messages;
    };
    if (job.state != RunState::Done) {
      // One row per degraded job (timeout/failed/shed/pending) so the
      // disposition is visible in the report.
      prefix(out) << ",-,0,0," << to_string(job.state) << ',' << job.attempts
                  << ',' << csv_escape(job.error) << ",0,0,0,0,0,"
                  << job.evals << ',' << job.cache_hit_rate() << ','
                  << job.delta_fallbacks << ',' << job.seconds << '\n';
      continue;
    }
    for (const StrategyOutcome& o : job.outcomes) {
      prefix(out) << ',' << to_string(o.strategy) << ','
                  << (o.schedulable ? 1 : 0) << ',' << (o.skipped ? 1 : 0)
                  << ',' << to_string(job.state) << ',' << job.attempts << ','
                  << csv_escape(job.error) << ',' << o.delta.f1 << ','
                  << o.delta.f2 << ',' << o.s_total << ',' << o.s_total_before
                  << ',' << o.evaluations << ',' << job.evals << ','
                  << job.cache_hit_rate() << ',' << job.delta_fallbacks << ','
                  << o.seconds << '\n';
    }
  }
}

}  // namespace mcs::exp
