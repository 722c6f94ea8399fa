// Internal to src/exp: the one suite driver, strategy step, spec parser
// and report helpers behind run_campaign() and run_validation().
#pragma once

#include <algorithm>
#include <chrono>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "mcs/core/moves.hpp"
#include "mcs/core/optimize_resources.hpp"
#include "mcs/exp/journal.hpp"
#include "mcs/exp/pipeline.hpp"
#include "mcs/gen/generator.hpp"
#include "mcs/gen/suites.hpp"
#include "mcs/obs/trace.hpp"
#include "mcs/util/kv_parse.hpp"
#include "mcs/util/parallel.hpp"

namespace mcs::exp {

[[nodiscard]] inline double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Parses the `key = value` spec format: the SpecBase keys here,
/// everything else through `kind_key`, which returns false for a key the
/// kind does not know (a line-numbered std::invalid_argument follows).
void parse_spec(std::istream& in, const char* context, SpecBase& spec,
                const std::function<bool(const util::KvEntry&)>& kind_key);
/// parse_strategy(name) with a line-numbered error for spec entry `e`.
[[nodiscard]] Strategy spec_strategy(const util::KvEntry& e, const std::string& name,
                                     const char* context);

/// One strategy's verdict plus the configuration it produced.
struct StrategyRun {
  core::Candidate best;
  core::Evaluation eval;
  int evaluations = 0;
  std::int64_t s_total_before = 0;  ///< OR only: buffer need after its OS step
};

/// A job's synthesis engine: the job-local MoveContext (its workspace
/// lives on the one worker thread running the job) and the SF/OS/OR step
/// both job kinds share.
class JobSynthesis {
public:
  JobSynthesis(const gen::GeneratedSystem& sys, const SpecBase& spec);

  [[nodiscard]] const core::MoveContext& ctx() const noexcept { return ctx_; }

  /// Runs SF, OS or OR.  OR's step 1 is OS under the same options on the
  /// same ctx, so an OS result this job already computed is handed to OR
  /// instead of being recomputed.
  [[nodiscard]] StrategyRun step(Strategy strategy);

  /// Copies the job's replayed-component count into `row` and its
  /// engine_metrics() into `engine`.
  void record_counters(JobRow& row, MetricsSnapshot& engine) const;

private:
  core::MoveContext ctx_;
  core::OptimizeResourcesOptions or_options_;  ///< .schedule drives OS too
  std::optional<core::OptimizeScheduleResult> os_result_;
};

// --- signature and report helpers shared by both kinds ---------------------

void sign(util::Fnv1a& h, const std::string& s);
/// The row identity every signature starts with: job, system seed, state.
void sign(util::Fnv1a& h, const JobRow& row);

[[nodiscard]] std::string json_escape(const std::string& s);
/// RFC-4180 quoting for free-text CSV columns.
[[nodiscard]] std::string csv_escape(const std::string& s);

/// Report pieces, in output order: `{"<kind>": name, suite, seeds_per_dim,
/// campaign_seed` lines; then (after the kind's spec keys) workers,
/// interrupted, resumed_jobs, wall_seconds and signature lines.
void write_json_spec_keys(std::ostream& out, const char* kind, const SpecBase& spec);
void write_json_run_keys(std::ostream& out, std::size_t workers, bool interrupted,
                         std::size_t resumed_jobs, double wall_seconds,
                         std::uint64_t signature);
/// Per job: `{"job": ..., "messages": N`, the kind's keys, then
/// `, "seconds": S,\n "metrics": {...},\n ` before the kind's arrays.
void write_json_job_identity(std::ostream& out, const JobRow& row);
void write_json_job_metrics(std::ostream& out, const JobRow& row);
/// Per CSV row: `name,job,...,messages`, the kind's columns, then
/// `,evals,delta_replays,<seconds>\n` — the wall-clock column stays last
/// so consumers can strip it to compare runs.
void write_csv_job_identity(std::ostream& out, const std::string& name,
                            const JobRow& row);
void write_csv_job_metrics(std::ostream& out, const JobRow& row, double seconds);

/// The metrics every suite run reports: the merged engine metrics of the
/// jobs it executed, the journal writer's count and the rows by state.
template <typename Spec, typename Job>
[[nodiscard]] MetricsSnapshot suite_metrics(const SuiteResult<Spec, Job>& result) {
  MetricsSnapshot s = result.engine;
  if (result.journal_appends > 0) {
    s["journal.appends"] = MetricValue::counter(result.journal_appends);
    s["journal.bytes"] = MetricValue::counter(result.journal_bytes);
  }
  for (const RunState state : {RunState::Done, RunState::Timeout, RunState::Failed}) {
    s[std::string("runtime.jobs_") + to_string(state)] =
        MetricValue::counter(result.count(state));
  }
  return s;
}

// --- journal pieces shared by both kinds -------------------------------------

/// The shared head of every spec digest: the kind tag (so a journal of one
/// kind never resumes under the other), then every SpecBase field that
/// decides which results a run produces — not `name` or `jobs`.
void sign_spec(util::Fnv1a& h, const char* kind, const SpecBase& spec);
/// The JobRow fields of a journal record, written first by both codecs.
/// read_row throws JournalError on a state no journaled (settled) row has.
void write_row(RecordWriter& w, const JobRow& row);
void read_row(RecordReader& r, JobRow& row);

// --- the suite driver --------------------------------------------------------

/// How a job kind persists its rows for --journal/--resume.
template <typename Job>
struct JournalCodec {
  std::uint64_t spec_digest = 0;
  std::string (*encode)(const Job&) = nullptr;
  Job (*decode)(const std::string&) = nullptr;
};

/// Runs `body(sys, row, engine)` once for every point of the spec's
/// suite, on `spec.jobs` worker threads.  The driver fills each row's
/// identity and wall time, merges each completed body's `engine` metrics
/// into the result, settles a body that throws into a `failed` row, and,
/// with a journal_path, journals settled rows through `codec`.  Once the
/// stop flag is up no further job starts: jobs already running finish
/// and are journaled, the rest stay `pending`.  Pending rows are never
/// journaled: --resume re-runs exactly those.
template <typename Result, typename Body>
Result run_suite(const decltype(Result::spec)& spec, const RunOptions& options,
                 const char* job_span,
                 const JournalCodec<typename decltype(Result::jobs)::value_type>& codec,
                 const Body& body) {
  using Job = typename decltype(Result::jobs)::value_type;
  const auto start = std::chrono::steady_clock::now();
  const auto suite =
      gen::suite_by_name(spec.suite, spec.seeds_per_dim, spec.suite_base_seed);

  Result result;
  result.spec = spec;
  result.jobs.resize(suite.size());
  const auto identified = [&suite](std::size_t i) {
    Job job;
    job.job_index = i;
    job.dimension = suite[i].dimension;
    job.replica = suite[i].replica;
    job.system_seed = suite[i].params.seed;
    return job;
  };
  // The row of a job that did not complete (failed / pending):
  // attributable and replayable, with empty outcome fields.
  const auto degraded = [&identified](std::size_t i, RunState state,
                                      std::string error) {
    Job job = identified(i);
    job.state = state;
    job.error = std::move(error);
    return job;
  };

  // Checkpoint/resume: recover journaled rows first; recovered jobs never
  // re-run.
  std::optional<JournalWriter> journal;
  std::vector<char> recovered(suite.size(), 0);
  if (!options.journal_path.empty()) {
    const JournalHeader header{kJournalVersion, codec.spec_digest};
    if (options.resume) {
      JournalContents contents;
      journal.emplace(
          JournalWriter::open_or_create(options.journal_path, header, contents));
      for (const std::string& record : contents.records) {
        Job job = codec.decode(record);
        if (job.job_index >= suite.size() || recovered[job.job_index]) {
          throw JournalError("journal record for unexpected job " +
                             std::to_string(job.job_index));
        }
        recovered[job.job_index] = 1;
        ++result.resumed_jobs;
        result.jobs[job.job_index] = std::move(job);
      }
    } else {
      journal.emplace(JournalWriter::create(options.journal_path, header));
    }
  }

  result.workers = std::min(spec.jobs == 0 ? util::default_workers() : spec.jobs,
                            std::max<std::size_t>(1, suite.size()));
  std::mutex engine_mutex;
  util::parallel_for(result.workers, suite.size(), [&](std::size_t i) {
    // Everything mutable is local to this call and thus to the one worker
    // thread executing it.  The body fills a local row that reaches the
    // slot only when it completes, so a failed job leaves no partial result.
    if (recovered[i]) return;
    Job& row = result.jobs[i];
    if (options.stop != nullptr && options.stop->load()) {
      row = degraded(i, RunState::Pending,
                     "pending: shutdown requested before the job started");
      return;
    }

    try {
      // Inside the try block: stack unwinding on any failure path closes
      // the spans, keeping B/E events balanced.
      const obs::Span attempt("job.attempt", static_cast<std::uint64_t>(i));
      const obs::Span span(job_span, static_cast<std::uint64_t>(i));
      const auto job_start = std::chrono::steady_clock::now();
      Job job = identified(i);
      const gen::GeneratedSystem sys = gen::generate(suite[i].params);
      job.processes = sys.app.num_processes();
      job.messages = sys.app.num_messages();
      MetricsSnapshot engine;
      body(sys, job, engine);
      job.seconds = seconds_since(job_start);
      row = std::move(job);
      const std::lock_guard lock(engine_mutex);
      merge(result.engine, engine);
    } catch (const std::exception& error) {
      row = degraded(i, RunState::Failed, error.what());
    }
    if (journal) journal->append(codec.encode(row));
  });

  if (journal) {
    journal->close();
    result.journal_appends = journal->appends();
    result.journal_bytes = journal->payload_bytes();
  }
  result.wall_seconds = seconds_since(start);
  return result;
}

}  // namespace mcs::exp
