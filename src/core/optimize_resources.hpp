// OptimizeResources (OR) — the paper's Figure 7 two-step synthesis:
//
//   Step 1: OptimizeSchedule finds a schedulable system with the best
//           degree of schedulability and records seed solutions (best by
//           delta and best by s_total).
//   Step 2: from each seed, hill-climb over the §5.1 move set, always
//           selecting the neighbor with the smallest total buffer need
//           s_total among those that keep the system schedulable, until
//           no improvement or an iteration limit.
//
// The result is a schedulable configuration with (near-)minimal total
// queue sizes.  When step 1 finds no schedulable configuration at all the
// paper modifies the mapping/architecture; this library reports the best
// effort and sets `schedulable = false` (mapping is an input here).
#pragma once

#include "mcs/core/optimize_schedule.hpp"

namespace mcs::core {

struct OptimizeResourcesOptions {
  OptimizeScheduleOptions schedule;  ///< step 1
  std::size_t max_seed_starts = 4;   ///< hill climbs to run (paper: several)
  int max_climb_iterations = 32;     ///< per seed
  std::size_t neighbors_per_step = 48;
};

struct OptimizeResourcesResult {
  Candidate best;
  Evaluation best_eval;
  std::int64_t s_total_before = 0;  ///< OS's buffer need (for comparison)
  int evaluations = 0;
  int climb_steps = 0;
};

[[nodiscard]] OptimizeResourcesResult optimize_resources(
    const MoveContext& ctx, const OptimizeResourcesOptions& options = {});

/// Step 2 alone, from a step-1 result the caller already holds: `step1`
/// must be optimize_schedule(ctx, options.schedule) on this same `ctx`
/// (OS is deterministic, so the result then equals the overload above,
/// evaluations included, without running OS twice).
[[nodiscard]] OptimizeResourcesResult optimize_resources(
    const MoveContext& ctx, const OptimizeScheduleResult& step1,
    const OptimizeResourcesOptions& options = {});

/// Step 2 alone: hill-climb buffer minimization from a given start,
/// which is analyzed once and counted once in `evaluations`.
/// Exposed for examples/seeding_ablation.cpp (seeded vs cold starts).
[[nodiscard]] OptimizeResourcesResult minimize_buffers_from(
    const MoveContext& ctx, const Candidate& start,
    const OptimizeResourcesOptions& options = {});

}  // namespace mcs::core
