// Simulated annealing baselines (paper §6): SAS anneals the degree of
// schedulability delta_Gamma; SAR anneals the total buffer need s_total
// (with schedulability as a soft constraint folded into the cost).  The
// paper uses "very long and expensive runs" of these as near-optimal
// references for Figure 9; the same role here, with an evaluation budget
// so a reproduction run stays bounded.
#pragma once

#include <optional>

#include "mcs/core/moves.hpp"
#include "mcs/util/cancel.hpp"

namespace mcs::core {

enum class SaObjective {
  Schedulability,  ///< SAS: minimize delta_Gamma
  BufferSize,      ///< SAR: minimize s_total subject to schedulability
};

struct SaOptions {
  SaObjective objective = SaObjective::Schedulability;
  double initial_temperature = 1000.0;
  double cooling = 0.95;
  int iterations_per_temperature = 20;
  double min_temperature = 0.5;
  int max_evaluations = 4000;
  /// Wall-clock budget in milliseconds (0 = unlimited).  The paper ran
  /// SAS/SAR for up to three hours.  Campaigns force 0 (a clock budget
  /// would break determinism); examples/runtime_comparison.cpp caps the
  /// cold-start run with it.
  std::int64_t max_milliseconds = 0;
  /// Early exit once the best cost reaches this value (used by
  /// examples/runtime_comparison.cpp: "time for SA to match OS quality").
  std::optional<double> target_cost;
  /// Cooperative cancellation: polled once per evaluation alongside the
  /// wall-clock budget; a fired token unwinds with util::CancelledError so
  /// the suite driver records a deterministic row (no partial,
  /// clock-dependent result escapes).  Not owned; may be null.
  const util::CancelToken* cancel = nullptr;
  std::uint64_t seed = 1;
};

struct SaResult {
  Candidate best;
  Evaluation best_eval;
  double best_cost = 0.0;
  int evaluations = 0;
  int accepted_moves = 0;
};

/// Cost function shared with the tests: lower is better.  For BufferSize
/// an unschedulable configuration pays a large penalty proportional to its
/// lateness so the search is pulled back toward the feasible region.
[[nodiscard]] double sa_cost(SaObjective objective, const Evaluation& eval);

[[nodiscard]] SaResult simulated_annealing(const MoveContext& ctx,
                                           const Candidate& start,
                                           const SaOptions& options);

}  // namespace mcs::core
