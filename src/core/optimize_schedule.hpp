// OptimizeSchedule (OS) — the greedy bus-access/priority synthesis of the
// paper's Figure 8.
//
// Starting from the straightforward TDMA round, the heuristic fixes the
// slot sequence position by position: for each position it tentatively
// swaps in every not-yet-bound node, tries the recommended slot lengths
// for that node, computes HOPA priorities, runs MultiClusterScheduling,
// and keeps the (node, length) pair with the best degree of
// schedulability.  Along the way it records seed solutions — the best
// configurations by delta and by total buffer size — that the second
// optimization step (OptimizeResources) starts from.
#pragma once

#include "mcs/core/hopa.hpp"
#include "mcs/core/moves.hpp"
#include "mcs/util/cancel.hpp"

namespace mcs::core {

/// A seed and its evaluation: OptimizeResources starts its hill climb
/// from `eval` instead of analyzing `candidate` a second time.
struct SeedSolution {
  Candidate candidate;
  Evaluation eval;  ///< equals ctx.evaluate(candidate)
};

struct OptimizeScheduleOptions {
  HopaOptions hopa;             ///< priority assignment per tried config
  std::size_t max_seeds = 8;    ///< seed_solutions list capacity
  /// Upper bound on slot lengths tried per (position, node) pair.
  std::size_t max_lengths_per_slot = 6;
  /// Cooperative cancellation, polled before every candidate evaluation
  /// (slot sweep and — via OptimizeResources — every hill-climb neighbor).
  /// A fired token unwinds with util::CancelledError.  Not owned; may be null.
  const util::CancelToken* cancel = nullptr;
};

struct OptimizeScheduleResult {
  Candidate best;               ///< psi_best
  Evaluation best_eval;
  std::vector<SeedSolution> seeds;
  int evaluations = 0;          ///< MultiClusterScheduling runs performed
};

[[nodiscard]] OptimizeScheduleResult optimize_schedule(
    const MoveContext& ctx, const OptimizeScheduleOptions& options = {});

}  // namespace mcs::core
