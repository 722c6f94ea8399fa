// mcs_synth — command-line synthesis driver.
//
// Single-system mode:
//
//   mcs_synth <system.mcs> [options]
//
//   --strategy sf|os|or     synthesis strategy (default: or)
//   --conservative          disable offset/precedence pruning
//   --paper-ttp             use the paper's closed-form OutTTP model
//   --simulate              simulate the result fault-free and check every
//                           simulated instant against its analytic bound
//                           (the --validate soundness step; exit 1 on a
//                           BOUND VIOLATION)
//   --faults <spec>         with --simulate: additionally run the fault
//                           scenario described by the key=value spec file
//                           (examples/drop.faults) and report degradation
//   --sim-trace             print the simulation trace (implies --simulate)
//   --dump-config           print the synthesized configuration (slots,
//                           priorities, schedule table)
//   --stats                 print evaluation-engine counters after the
//                           run: active analysis kernel, DeltaStats
//                           (replays/fallbacks/elisions/skips),
//                           candidate-list cache hit rate, scratch
//                           footprint, record store size
//
// Observability (every mode, DESIGN.md §7):
//
//   --trace <file>          write a Chrome trace-event JSON span trace of
//                           the run (campaign jobs, optimizer phases,
//                           sampled fixed-point iterations); load it in
//                           chrome://tracing or ui.perfetto.dev
//   --metrics <file>        write one JSON snapshot of the run's metrics
//                           (counters, gauges, histograms), computed
//                           from the finished result: engine counters
//                           summed over the jobs, row states, annealing
//                           evaluations, fault counters, journal records
//   --log-level <lvl>       debug|info|warn|error|off; overrides the
//                           MCS_LOG_LEVEL environment variable
//
// Arming --trace/--metrics cannot change any result: every campaign and
// validation signature is bit-identical with observability on or off, and
// the metrics file is byte-identical for any --jobs value
// (tests/obs/zero_interference_test.cpp).
//
// Campaign mode (parallel multi-seed/multi-suite sweeps, see
// src/exp/campaign.hpp and DESIGN.md §4) and validation mode
// (campaign-scale soundness fuzzing + fault sweeps, see
// src/exp/validation.hpp and DESIGN.md §5) run on one suite driver and
// share their run flags:
//
//   mcs_synth --campaign <spec> [run flags]
//   mcs_synth --validate <spec> [--faults F] [run flags]
//
//   --campaign <spec>       run the campaign described by the key=value
//                           spec file (examples/tiny.campaign is a sample)
//   --validate <spec>       run the validation campaign described by the
//                           key=value spec file (examples/soundness.validation);
//                           exit status 1 when any analytic bound was
//                           violated on a fault-free run (a soundness bug)
//   --faults <spec>         append the fault scenario in the spec file to
//                           the validation's scenario list
//
// Run flags:
//
//   --jobs N                worker threads (overrides the spec; 0 = one
//                           per hardware core)
//   --report-json <file>    write the full per-job JSON report
//   --report-csv <file>     write the CSV report
//   --journal <file>        append every settled job to a crash-safe
//                           checkpoint journal (src/exp/journal.hpp)
//   --resume <file>         resume from a journal written by --journal:
//                           recovered jobs are not re-run and the merged
//                           report signature equals an uninterrupted run's
//
// A flag the selected mode does not read is an error (exit 3): run flags
// with a system file, single-system flags and --campaign's --faults in a
// suite run (the spec keys `strategies`/`strategy`, `conservative` and
// `paper_ttp` do those jobs there).
//
// SIGINT/SIGTERM drain the run gracefully: no further job starts, jobs
// already running finish and are journaled, the unstarted ones stay
// `pending`, a partial report is written, and the exit code is 4 (resume
// with --resume) — or 0 when every job had already started.  Every job is
// bounded by its search budgets, so the drain waits at most one job per
// worker.  A second signal kills immediately.
//
// Reads a plain-text system description (see src/gen/textio.hpp for the
// grammar and examples/paper_example.mcs for a sample), synthesizes a
// configuration and prints the schedulability verdict, per-graph response
// times and worst-case buffer needs.
#include <signal.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <stdexcept>

#include "mcs/core/optimize_resources.hpp"
#include "mcs/core/straightforward.hpp"
#include "mcs/exp/campaign.hpp"
#include "mcs/exp/journal.hpp"
#include "mcs/exp/metrics.hpp"
#include "mcs/exp/validation.hpp"
#include "mcs/gen/textio.hpp"
#include "mcs/model/validation.hpp"
#include "mcs/obs/trace.hpp"
#include "mcs/sim/simulator.hpp"
#include "mcs/util/log.hpp"
#include "mcs/util/table.hpp"

using namespace mcs;

namespace {

constexpr const char* kVersion = "0.8.0";

/// Graceful-shutdown flag the signal handler raises; the suite driver
/// starts no job once it is up (std::atomic<bool> is lock-free on every
/// target we build for, so the store below is async-signal-safe).
std::atomic<bool> g_stop{false};

extern "C" void handle_shutdown_signal(int) { g_stop.store(true); }

void install_signal_handlers() {
  struct sigaction action{};
  action.sa_handler = handle_shutdown_signal;
  sigemptyset(&action.sa_mask);
  // One signal drains gracefully; a second one falls back to the default
  // disposition and kills the process (the journal survives either way).
  action.sa_flags = SA_RESETHAND;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
}

struct Options {
  std::string path;
  std::string strategy = "or";
  bool conservative = false;
  bool paper_ttp = false;
  bool simulate = false;
  bool sim_trace = false;
  bool dump_config = false;
  bool stats = false;
  std::string trace_json;    ///< span-trace output path (arms the tracer)
  std::string metrics_json;  ///< metrics-snapshot output path (arms metrics)
  std::optional<util::LogLevel> log_level;
  std::string campaign;  ///< spec path; non-empty selects campaign mode
  std::string validate;  ///< spec path; non-empty selects validation mode
  std::string faults;    ///< fault-spec path (single-system or validation)
  std::optional<std::size_t> jobs;
  std::string report_json;
  std::string report_csv;
  std::string journal;  ///< checkpoint journal to write
  std::string resume;   ///< journal to resume from (implies journal)
};

void usage() {
  std::fprintf(stderr,
               "usage: mcs_synth <system.mcs> [--strategy sf|os|or] "
               "[--conservative] [--paper-ttp] [--simulate] "
               "[--faults <spec>] [--sim-trace] [--dump-config] [--stats]\n"
               "       any mode: [--trace <file>] [--metrics <file>] "
               "[--log-level debug|info|warn|error|off]\n"
               "       mcs_synth --campaign <spec> [run flags]\n"
               "       mcs_synth --validate <spec> [--faults <spec>] [run flags]\n"
               "       run flags: [--jobs N] [--report-json <file>] "
               "[--report-csv <file>]\n"
               "                  [--journal <file> | --resume <file>]\n"
               "       mcs_synth --version\n"
               "exit codes: 0 ok/schedulable, 1 unschedulable or bound "
               "violations or runtime error, 2 usage,\n"
               "            3 invalid flag value, 4 interrupted (partial "
               "report written; resumable), 5 journal mismatch/corruption\n");
}

/// Validates an unsigned integer flag value; prints a one-line error and
/// returns false on garbage, negatives, overflow or out-of-range counts.
bool parse_count_flag(const char* flag, const char* text,
                      unsigned long long max, unsigned long long& out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0' || text[0] == '-' || errno == ERANGE ||
      value > max) {
    std::fprintf(stderr, "error: %s expects a count in 0..%llu, got '%s'\n",
                 flag, max, text);
    return false;
  }
  out = value;
  return true;
}

/// Returns 0 when parsing succeeded, or the process exit code to use:
/// 2 for a usage error (unknown flag / wrong mode combination; caller
/// prints usage), 3 for a malformed flag value or a flag the selected
/// mode does not read (one-line error already printed, no usage spam).
int parse_args(int argc, char** argv, Options& options) {
  // The first flag seen that only single-system mode reads, and the first
  // run flag (read only by --campaign/--validate): given in the other
  // mode, either would be silently ignored.
  std::string system_flag;
  std::string run_flag;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--strategy" || arg == "--conservative" || arg == "--paper-ttp" ||
        arg == "--simulate" || arg == "--sim-trace" || arg == "--dump-config" ||
        arg == "--stats") {
      if (system_flag.empty()) system_flag = arg;
    } else if (arg == "--jobs" || arg == "--report-json" || arg == "--report-csv" ||
               arg == "--journal" || arg == "--resume") {
      if (run_flag.empty()) run_flag = arg;
    }
    if (arg == "--version") {
      std::printf("mcs_synth %s (analysis kernel: %s)\n", kVersion,
                  core::kernel_name(core::kernel_from_env()));
      std::exit(0);
    } else if (arg == "--campaign") {
      if (++i >= argc) return 2;
      options.campaign = argv[i];
    } else if (arg == "--validate") {
      if (++i >= argc) return 2;
      options.validate = argv[i];
    } else if (arg == "--faults") {
      if (++i >= argc) return 2;
      options.faults = argv[i];
    } else if (arg == "--jobs") {
      if (++i >= argc) return 2;
      // Reject garbage, negatives and absurd counts instead of silently
      // wrapping ("-1") or defaulting to all cores ("abc" -> 0).
      unsigned long long jobs = 0;
      if (!parse_count_flag("--jobs", argv[i], 4096, jobs)) return 3;
      options.jobs = static_cast<std::size_t>(jobs);
    } else if (arg == "--journal") {
      if (++i >= argc) return 2;
      options.journal = argv[i];
    } else if (arg == "--resume") {
      if (++i >= argc) return 2;
      options.resume = argv[i];
    } else if (arg == "--report-json") {
      if (++i >= argc) return 2;
      options.report_json = argv[i];
    } else if (arg == "--report-csv") {
      if (++i >= argc) return 2;
      options.report_csv = argv[i];
    } else if (arg == "--strategy") {
      if (++i >= argc) return 2;
      options.strategy = argv[i];
      if (options.strategy != "sf" && options.strategy != "os" &&
          options.strategy != "or") {
        std::fprintf(stderr, "error: --strategy expects sf, os or or, got '%s'\n",
                     argv[i]);
        return 3;
      }
    } else if (arg == "--conservative") {
      options.conservative = true;
    } else if (arg == "--paper-ttp") {
      options.paper_ttp = true;
    } else if (arg == "--simulate") {
      options.simulate = true;
    } else if (arg == "--sim-trace") {
      options.simulate = true;
      options.sim_trace = true;
    } else if (arg == "--trace") {
      if (++i >= argc) return 2;
      options.trace_json = argv[i];
    } else if (arg == "--metrics") {
      if (++i >= argc) return 2;
      options.metrics_json = argv[i];
    } else if (arg == "--log-level") {
      if (++i >= argc) return 2;
      try {
        options.log_level = util::parse_log_level(argv[i]);
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "error: --log-level: %s\n", e.what());
        return 3;
      }
    } else if (arg == "--dump-config") {
      options.dump_config = true;
    } else if (arg == "--stats") {
      options.stats = true;
    } else if (!arg.empty() && arg[0] == '-') {
      return 2;
    } else if (options.path.empty()) {
      options.path = arg;
    } else {
      return 2;
    }
  }
  // Exactly one mode: a system file, a campaign spec or a validation spec.
  const int modes = (!options.path.empty() ? 1 : 0) +
                    (!options.campaign.empty() ? 1 : 0) +
                    (!options.validate.empty() ? 1 : 0);
  if (modes != 1) return 2;
  if (!options.journal.empty() && !options.resume.empty()) {
    std::fprintf(stderr,
                 "error: --journal and --resume are mutually exclusive "
                 "(--resume keeps appending to the journal it resumes)\n");
    return 3;
  }
  if (!options.path.empty()) {
    if (!run_flag.empty()) {
      std::fprintf(stderr, "error: %s needs --campaign or --validate mode\n",
                   run_flag.c_str());
      return 3;
    }
    return 0;
  }
  if (!system_flag.empty()) {
    // Suite runs take these settings from their spec file.
    const char* key = nullptr;
    if (system_flag == "--conservative") {
      key = "conservative";
    } else if (system_flag == "--paper-ttp") {
      key = "paper_ttp";
    } else if (system_flag == "--strategy") {
      key = options.campaign.empty() ? "strategy" : "strategies";
    }
    if (key != nullptr) {
      std::fprintf(stderr,
                   "error: %s applies to a system file; set the spec key '%s' "
                   "instead\n",
                   system_flag.c_str(), key);
    } else {
      std::fprintf(stderr, "error: %s applies only to a system file\n",
                   system_flag.c_str());
    }
    return 3;
  }
  if (!options.campaign.empty() && !options.faults.empty()) {
    std::fprintf(stderr, "error: --faults needs a system file or --validate mode\n");
    return 3;
  }
  return 0;
}

/// Applies the run flags shared by --campaign and --validate to the spec
/// and returns the run's execution-time options.
exp::RunOptions apply_run_flags(const Options& options, exp::SpecBase& spec) {
  if (options.jobs) spec.jobs = *options.jobs;
  exp::RunOptions run;
  run.journal_path = options.resume.empty() ? options.journal : options.resume;
  run.resume = !options.resume.empty();
  run.stop = &g_stop;
  return run;
}

/// Prints the resume note and the signature line of a suite run.
template <typename Result>
void print_signature(const exp::RunOptions& run, const Result& result) {
  if (result.resumed_jobs > 0) {
    std::printf("\nresumed %zu journaled job(s) from %s\n", result.resumed_jobs,
                run.journal_path.c_str());
  }
  std::printf("\nsignature: %016llx (thread-count invariant)\n",
              static_cast<unsigned long long>(result.signature()));
}

/// Writes --report-json / --report-csv; false when a file cannot be opened.
template <typename Result>
bool write_report_files(const Options& options, const Result& result) {
  for (const bool json : {true, false}) {
    const std::string& path = json ? options.report_json : options.report_csv;
    if (path.empty()) continue;
    std::ofstream out(path);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return false;
    }
    if (json) {
      exp::write_json(result, out);
    } else {
      exp::write_csv(result, out);
    }
    std::printf("wrote %s\n", path.c_str());
  }
  return true;
}

/// One fault-free analytic-bound exceedance — a soundness bug — with the
/// coordinates that replay it.
void print_bound_violation(const sim::BoundViolation& v, const std::string& where) {
  std::printf("BOUND VIOLATION: %s simulated %lld > bound %lld (%s)\n",
              v.activity.c_str(), static_cast<long long>(v.simulated),
              static_cast<long long>(v.bound), where.c_str());
}

/// Writes the report files, then ends a suite run: 1 when a report
/// cannot be written, 4 when a shutdown drained it, else 0.
template <typename Result>
int finish_suite(const Options& options, const exp::RunOptions& run,
                 const Result& result) {
  if (!write_report_files(options, result)) return 1;
  if (!result.interrupted()) return 0;
  std::printf("interrupted: drained in-flight jobs, %s; "
              "re-run with --resume to finish\n",
              run.journal_path.empty() ? "partial report only (no --journal)"
                                       : "journal is consistent");
  return 4;
}

int run_campaign_mode(const Options& options, exp::MetricsSnapshot& metrics) {
  exp::CampaignSpec spec = exp::parse_campaign_spec_file(options.campaign);
  const exp::RunOptions run = apply_run_flags(options, spec);
  const exp::CampaignResult result = exp::run_campaign(spec, run);

  std::printf("campaign %s: suite %s, %zu jobs on %zu worker(s), %.2f s\n\n",
              spec.name.c_str(), spec.suite.c_str(), result.jobs.size(),
              result.workers, result.wall_seconds);
  result.summary_table().print(std::cout);
  print_signature(run, result);
  metrics = exp::metrics_snapshot(result);
  return finish_suite(options, run, result);
}

int run_validation_mode(const Options& options, exp::MetricsSnapshot& metrics) {
  exp::ValidationSpec spec = exp::parse_validation_spec_file(options.validate);
  if (!options.faults.empty()) {
    spec.scenarios.push_back(sim::parse_fault_spec_file(options.faults));
  }
  const exp::RunOptions run = apply_run_flags(options, spec);
  const exp::ValidationResult result = exp::run_validation(spec, run);

  std::printf(
      "validation %s: suite %s, strategy %s, %zu jobs on %zu worker(s), "
      "%zu scenario(s), %.2f s\n\n",
      spec.name.c_str(), spec.suite.c_str(),
      exp::to_string(spec.strategy).c_str(), result.jobs.size(),
      result.workers, spec.scenarios.size(), result.wall_seconds);
  result.summary_table().print(std::cout);
  print_signature(run, result);
  metrics = exp::metrics_snapshot(result);

  // Every fault-free bound violation is a soundness bug; print the
  // replayable coordinates so the instance can be regenerated exactly.
  for (const exp::ValidationJob& job : result.jobs) {
    for (const sim::BoundViolation& v : job.violations) {
      print_bound_violation(v, "suite " + spec.suite + ", system_seed " +
                                   std::to_string(job.system_seed) + ", strategy " +
                                   exp::to_string(spec.strategy));
    }
    if (job.failed()) {
      std::printf("job %zu (system_seed %llu) failed: %s\n", job.job_index,
                  static_cast<unsigned long long>(job.system_seed),
                  job.error.c_str());
    }
  }

  if (const int code = finish_suite(options, run, result); code != 0) return code;
  return result.total_violations() == 0 ? 0 : 1;
}

/// Prints the synthesis result; with --simulate also runs the fault-free
/// soundness step of a validation job and returns its bound violations.
std::size_t report(const gen::ParsedSystem& sys, const core::Candidate& candidate,
                   const core::Evaluation& eval, const Options& options) {
  const auto& analysis = eval.mcs.analysis;
  std::printf("verdict: %s\n", eval.schedulable ? "SCHEDULABLE" : "NOT schedulable");

  util::Table graphs({"graph", "period", "deadline", "response", "slack"});
  for (std::size_t gi = 0; gi < sys.app.num_graphs(); ++gi) {
    const auto& graph = sys.app.graphs()[gi];
    graphs.add_row({graph.name, util::Table::fmt(graph.period),
                    util::Table::fmt(graph.deadline),
                    util::Table::fmt(analysis.graph_response[gi]),
                    util::Table::fmt(graph.deadline - analysis.graph_response[gi])});
  }
  graphs.print(std::cout);

  std::printf("buffers: OutCAN=%lld B, OutTTP=%lld B",
              static_cast<long long>(analysis.buffers.out_can),
              static_cast<long long>(analysis.buffers.out_ttp));
  for (const auto& [node, bytes] : analysis.buffers.out_node) {
    std::printf(", Out%s=%lld B", sys.platform.node(node).name.c_str(),
                static_cast<long long>(bytes));
  }
  std::printf(" -> s_total=%lld B\n",
              static_cast<long long>(analysis.buffers.total()));

  if (options.dump_config) {
    std::printf("\nTDMA round: %s\n", candidate.tdma.to_string().c_str());
    util::Table sched({"process", "node", "cluster", "offset", "priority",
                       "worst completion"});
    for (std::size_t pi = 0; pi < sys.app.num_processes(); ++pi) {
      const auto& process = sys.app.processes()[pi];
      const bool tt = sys.platform.is_tt(process.node);
      sched.add_row({process.name, sys.platform.node(process.node).name,
                     tt ? "TT" : "ET",
                     util::Table::fmt(analysis.process_offsets[pi]),
                     tt ? "-" : util::Table::fmt(static_cast<std::int64_t>(
                                    candidate.process_priorities[pi])),
                     util::Table::fmt(analysis.process_offsets[pi] +
                                      analysis.process_response[pi])});
    }
    sched.print(std::cout);

    util::Table msgs({"message", "route", "priority", "delivered by"});
    for (std::size_t mi = 0; mi < sys.app.num_messages(); ++mi) {
      const util::MessageId m(static_cast<util::MessageId::underlying_type>(mi));
      const auto route = core::classify_route(sys.app, sys.platform, m);
      const bool on_can = route != core::MessageRoute::Local &&
                          route != core::MessageRoute::TtToTt;
      msgs.add_row({sys.app.messages()[mi].name, core::to_string(route),
                    on_can ? util::Table::fmt(static_cast<std::int64_t>(
                                 candidate.message_priorities[mi]))
                           : "-",
                    util::Table::fmt(analysis.message_delivery[mi])});
    }
    msgs.print(std::cout);
  }

  if (!options.simulate) return 0;
  sim::SimOptions sim_options;
  sim_options.record_trace = options.sim_trace;
  const exp::NominalRun nominal =
      exp::simulate_nominal(sys.app, sys.platform, candidate, eval, sim_options);
  const sim::SimResult& sim = nominal.sim;
  std::printf("\nsimulation: %s, %zu violation(s)\n",
              sim.completed ? "completed" : "did not complete", sim.violations.size());
  for (const auto& v : sim.violations) std::printf("  violation: %s\n", v.c_str());
  util::Table check({"graph", "simulated response", "analysis bound"});
  for (std::size_t gi = 0; gi < sys.app.num_graphs(); ++gi) {
    check.add_row({sys.app.graphs()[gi].name, util::Table::fmt(sim.graph_response[gi]),
                   util::Table::fmt(analysis.graph_response[gi])});
  }
  check.print(std::cout);
  if (nominal.checked) {
    std::printf("bound check: %zu violation(s)\n", sim.bound_violations.size());
  } else {
    std::printf("bound check skipped: %s\n", nominal.skip_reason.c_str());
  }
  for (const sim::BoundViolation& v : sim.bound_violations) {
    print_bound_violation(v, "system " + options.path + ", strategy " + options.strategy);
  }
  if (options.sim_trace) std::printf("\n%s", sim.trace.to_string().c_str());

  if (!options.faults.empty()) {
    const sim::FaultSpec faults = sim::parse_fault_spec_file(options.faults);
    const auto faulted = sim::simulate(sys.app, sys.platform, nominal.config,
                                       eval.mcs.schedule, sim_options, faults);
    std::printf(
        "\nfault scenario %s (seed %llu): %s, %lld fault(s) injected, "
        "%zu deadline miss(es), %zu message(s) lost, %zu violation(s)\n",
        faults.name.c_str(), static_cast<unsigned long long>(faults.seed),
        sim::to_string(faulted.status), static_cast<long long>(faulted.faults.total()),
        faulted.deadline_misses.size(), faulted.lost_messages.size(),
        faulted.violations.size());
    for (const auto& m : faulted.lost_messages) {
      std::printf("  lost: %s\n", m.c_str());
    }
    util::Table degraded({"graph", "fault-free response", "faulted response",
                          "deadline"});
    for (std::size_t gi = 0; gi < sys.app.num_graphs(); ++gi) {
      degraded.add_row({sys.app.graphs()[gi].name,
                        util::Table::fmt(sim.graph_response[gi]),
                        util::Table::fmt(faulted.graph_response[gi]),
                        util::Table::fmt(sys.app.graphs()[gi].deadline)});
    }
    degraded.print(std::cout);
    if (options.sim_trace) {
      std::printf("\n%s", faulted.trace.to_string().c_str());
    }
  }
  return sim.bound_violations.size();
}

// Evaluation-engine counters for the single-system synthesis run: which
// kernel ran, how often records replayed across runs, iterations and
// passes, and what the other reuse layers (candidate-list cache, pass-1
// skips) delivered.
void print_stats(const core::MoveContext& ctx,
                 const core::McsOptions& mcs_options) {
  const core::AnalysisWorkspace& ws = ctx.workspace();
  const core::DeltaStats& d = ws.delta_stats();
  const auto pct = [](std::uint64_t part, std::uint64_t whole) {
    return whole == 0 ? 0.0 : 100.0 * static_cast<double>(part) /
                                  static_cast<double>(whole);
  };
  std::printf("\nevaluation engine stats:\n");
  std::printf("  analysis kernel        %s\n",
              core::kernel_name(mcs_options.analysis.kernel));
  std::printf("  mcs runs               %llu full, %llu delta replays, "
              "%llu option-change fallbacks\n",
              static_cast<unsigned long long>(d.full_runs),
              static_cast<unsigned long long>(d.delta_runs),
              static_cast<unsigned long long>(d.fallbacks));
  std::printf("  delta checks           %llu checked, %llu mismatches\n",
              static_cast<unsigned long long>(d.checked),
              static_cast<unsigned long long>(d.mismatches));
  std::printf("  elided mcs iterations  %llu\n",
              static_cast<unsigned long long>(d.elided_iterations));
  std::printf("  pass components        %llu replayed from earlier runs, %llu "
              "from the previous iteration, %llu recomputed\n",
              static_cast<unsigned long long>(d.components_skipped),
              static_cast<unsigned long long>(d.iteration_skips),
              static_cast<unsigned long long>(d.components_recomputed));
  std::printf("  candidate-list cache   %llu hits, %llu rebuilds "
              "(%.1f%% hit rate)\n",
              static_cast<unsigned long long>(d.cand_cache_hits),
              static_cast<unsigned long long>(d.cand_cache_rebuilds),
              pct(d.cand_cache_hits, d.cand_cache_hits + d.cand_cache_rebuilds));
  std::printf("  fixed-point skips      %llu members, %llu pass-1 processes\n",
              static_cast<unsigned long long>(d.intra_skips),
              static_cast<unsigned long long>(d.p1_process_skips));
  std::printf("  scratch footprint      %zu bytes (stable per workspace)\n",
              ws.scratch_footprint_bytes());
  std::printf("  record store           %zu bytes (component slots)\n",
              ws.record_bytes());
}

/// Dispatches to the selected mode, fills `metrics` from what the run
/// produced and returns the process exit code.  Split out of main() so
/// the observability epilogue (trace / metrics file writes) runs on every
/// exit path short of a signal kill.  Takes a copy: the fault-sweep
/// shortcut below flips `simulate` locally.
int run(Options options, exp::MetricsSnapshot& metrics) {
  try {
    if (!options.campaign.empty() || !options.validate.empty()) {
      install_signal_handlers();
    }
    if (!options.campaign.empty()) return run_campaign_mode(options, metrics);
    if (!options.validate.empty()) return run_validation_mode(options, metrics);

    // A fault sweep only makes sense against a simulated run.
    if (!options.faults.empty()) options.simulate = true;

    const gen::ParsedSystem sys = gen::parse_system_file(options.path);
    const auto validation = model::validate(sys.app, sys.platform);
    if (!validation.ok()) {
      std::fprintf(stderr, "invalid system:\n%s", validation.to_string().c_str());
      return 1;
    }
    if (!validation.issues.empty()) {
      std::fprintf(stderr, "%s", validation.to_string().c_str());
    }

    exp::SpecBase flags;
    flags.conservative = options.conservative;
    flags.paper_ttp = options.paper_ttp;
    const core::McsOptions mcs_options = flags.mcs_options();
    const core::MoveContext ctx(sys.app, sys.platform, mcs_options);

    // Exit 1 when the result is unschedulable or violates a bound.
    const auto finish = [&](const core::Candidate& best, const core::Evaluation& eval) {
      const std::size_t violations = report(sys, best, eval, options);
      if (options.stats) print_stats(ctx, mcs_options);
      metrics = exp::engine_metrics(ctx.workspace(), mcs_options.analysis.kernel);
      return eval.schedulable && violations == 0 ? 0 : 1;
    };
    if (options.strategy == "sf") {
      const auto sf = core::straightforward(ctx);
      return finish(sf.candidate, sf.evaluation);
    }
    if (options.strategy == "os") {
      const auto os = core::optimize_schedule(ctx);
      return finish(os.best, os.best_eval);
    }
    const auto orr = core::optimize_resources(ctx);
    return finish(orr.best, orr.best_eval);
  } catch (const exp::JournalError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 5;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

/// Writes the span trace and metrics snapshot armed by --trace/--metrics
/// (an empty metrics list when the run ended before it had a result).  A
/// failed write turns an otherwise-clean exit into code 1, but never
/// masks a real failure code from the run itself.
int finalize_observability(const Options& options,
                           const exp::MetricsSnapshot& metrics, int code) {
  if (!options.trace_json.empty()) {
    obs::stop_tracing();
    std::ofstream out(options.trace_json, std::ios::binary);
    if (out) obs::write_chrome_trace(out);
    if (!out || !out.flush()) {
      std::fprintf(stderr, "error: failed to write trace to '%s'\n",
                   options.trace_json.c_str());
      if (code == 0) code = 1;
    }
  }
  if (!options.metrics_json.empty()) {
    std::ofstream out(options.metrics_json, std::ios::binary);
    if (out) exp::write_metrics_json(metrics, out);
    if (!out || !out.flush()) {
      std::fprintf(stderr, "error: failed to write metrics to '%s'\n",
                   options.metrics_json.c_str());
      if (code == 0) code = 1;
    }
  }
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (const int status = parse_args(argc, argv, options); status != 0) {
    if (status == 2) usage();  // malformed values (3) already explained
    return status;
  }
  if (options.log_level) util::set_log_level(*options.log_level);
  // Arm the tracer before any analysis runs.  It may not change a
  // deterministic result byte (tests/obs/zero_interference_test.cpp).
  if (!options.trace_json.empty()) obs::start_tracing();
  exp::MetricsSnapshot metrics;
  const int code = run(options, metrics);
  return finalize_observability(options, metrics, code);
}
