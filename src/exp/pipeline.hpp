// The job pipeline shared by the campaign (campaign.hpp) and validation
// (validation.hpp) harnesses: the spec keys both kinds accept, the report
// row every job carries, the execution-time knobs and the result envelope.
//
// Signature contract (DESIGN.md §4): a result signature digests the
// paper's outputs only — per job its index, system seed and runtime
// state plus the kind's verdicts (Δ(f1,f2), s_total, schedulability,
// simulated-vs-bound checks).  The engine counters (evals and delta
// replays), error text and wall-clock times are reported but never
// signed, so the signature is bit-identical across worker counts, delta
// modes and observability on/off.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "mcs/core/multi_cluster_scheduling.hpp"
#include "mcs/exp/metrics.hpp"
#include "mcs/util/hash.hpp"

namespace mcs::exp {

/// The synthesis strategies a job can run (paper §6 nomenclature).
/// SAS/SAR seed their annealing from the best candidate an earlier
/// OS/OR strategy produced, mirroring the Figure 9 setup.
enum class Strategy { Sf, Os, Or, Sas, Sar };

[[nodiscard]] std::string to_string(Strategy strategy);
/// Parses "sf" | "os" | "or" | "sas" | "sar" (throws std::invalid_argument).
[[nodiscard]] Strategy parse_strategy(const std::string& name);

/// How a job settled (DESIGN.md §6).  The values are signed and journaled;
/// 3 is retired and must not be reused.
enum class RunState : std::uint8_t {
  Done = 0,     ///< body completed
  Timeout = 1,  ///< wall-clock deadline passed (CancelledError unwound)
  Failed = 2,   ///< the body threw
  Pending = 4,  ///< never finished (shutdown drained the run first)
};

[[nodiscard]] const char* to_string(RunState state) noexcept;

/// Test-only fault injection: the suite driver raises the configured
/// failure for job `job_index` *before* invoking its body.
struct RuntimeFault {
  enum class Kind : std::uint8_t {
    ThrowPermanent,  ///< std::runtime_error — the job fails
    Stall,           ///< spin until the job's token cancels it
  };
  std::size_t job_index = 0;
  Kind kind = Kind::ThrowPermanent;
};

/// Search budgets (laptop-sized defaults; paper scale needs larger SA budgets).
struct CampaignBudgets {
  int sa_max_evaluations = 250;
  int hopa_iterations = 3;
  std::size_t or_max_seed_starts = 3;
  int or_max_climb_iterations = 10;
  std::size_t or_neighbors_per_step = 16;
};

/// The spec keys both job kinds accept.  Everything that influences a
/// deterministic result field lives in a spec; `jobs` only controls
/// sharding.  Each kind sets its own name/suite/seed-grid defaults.
struct SpecBase {
  std::string name;
  std::string suite;  ///< gen::suite_by_name: fig9ab | fig9c | tiny | validation
  std::size_t seeds_per_dim = 0;
  std::uint64_t suite_base_seed = 0;  ///< generator seed grid origin
  std::uint64_t campaign_seed = 1;    ///< root of the per-job RNG streams
  bool conservative = false;          ///< disable offset/precedence pruning
  bool paper_ttp = false;             ///< closed-form OutTTP model
  CampaignBudgets budgets{};
  std::size_t jobs = 1;  ///< worker threads (0 = one per hardware core)
  /// Per-job wall-clock deadline in milliseconds (DESIGN.md §6; 0 = off).
  std::int64_t job_timeout_ms = 0;

  [[nodiscard]] core::McsOptions mcs_options() const;
};

/// The part of a report row every job kind shares: which instance it is,
/// how the suite driver settled it (DESIGN.md §6) and the engine counters.
/// Rows that are not `done` carry `error` explaining why; they never
/// abort the run or discard other jobs.
struct JobRow {
  std::size_t job_index = 0;
  std::size_t dimension = 0;  ///< suite dimension (processes or gw messages)
  std::size_t replica = 0;
  std::uint64_t system_seed = 0;
  std::size_t processes = 0;
  std::size_t messages = 0;
  RunState state = RunState::Done;
  std::string error;  ///< why a row is not `done`
  double seconds = 0.0;
  /// Per-job engine metrics (DESIGN.md §7): deterministic — pure
  /// functions of the job's inputs — but not signed, since delta replay
  /// changes them without changing any paper output.
  std::uint64_t evals = 0;          ///< total strategy evaluations
  std::uint64_t delta_replays = 0;  ///< pass components replayed from earlier runs

  [[nodiscard]] bool failed() const { return state == RunState::Failed; }
};

/// A finished run of one job kind: the spec, one row per suite point and
/// how the run went.
template <typename Spec, typename Job>
struct SuiteResult {
  Spec spec;
  std::vector<Job> jobs;    ///< indexed by job_index (= suite order)
  std::size_t workers = 1;  ///< resolved thread count actually used
  std::size_t resumed_jobs = 0;  ///< jobs recovered from the journal
  double wall_seconds = 0.0;
  /// engine_metrics() of every job this run executed to the end, merged
  /// (metrics.hpp).  Jobs a --resume recovered add nothing.
  MetricsSnapshot engine;
  std::uint64_t journal_appends = 0;  ///< records this run journaled
  std::uint64_t journal_bytes = 0;    ///< their payload bytes

  [[nodiscard]] std::size_t count(RunState state) const {
    return static_cast<std::size_t>(std::count_if(
        jobs.begin(), jobs.end(), [state](const Job& j) { return j.state == state; }));
  }

  /// A shutdown request drained the run before every job settled;
  /// `pending` rows mark the jobs a --resume will pick up.
  [[nodiscard]] bool interrupted() const { return count(RunState::Pending) > 0; }

  /// Digest of every job signature: equal across runs with any
  /// `spec.jobs`, delta mode or observability setting.
  [[nodiscard]] std::uint64_t signature() const {
    util::Fnv1a h;
    for (const Job& job : jobs) h.update(job.signature());
    return h.digest();
  }
};

/// Execution-time knobs that do NOT affect which results a finished run
/// contains — journaling, resume, shutdown, fault injection.  None of them
/// enter the spec digest or the result signature.
struct RunOptions {
  /// Append each settled row to this crash-safe journal (empty = no
  /// journaling).  See journal.hpp for the format.
  std::string journal_path;
  /// Resume from `journal_path`: journaled jobs are NOT re-run, their
  /// recovered rows merge with freshly computed ones, and the combined
  /// signature equals an uninterrupted run's.  The journal's spec digest
  /// must match the spec (JournalError otherwise).
  bool resume = false;
  /// Graceful shutdown flag (signal handlers set it).  Not owned.
  const std::atomic<bool>* stop = nullptr;
  /// Test-only fault injection (see RuntimeFault).
  std::vector<RuntimeFault> faults;
};

}  // namespace mcs::exp
