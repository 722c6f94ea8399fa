#include "mcs/core/optimize_resources.hpp"

#include <algorithm>

#include "mcs/obs/trace.hpp"
#include "mcs/util/log.hpp"

namespace mcs::core {

namespace {

/// One hill climb: repeatedly apply the schedulability-preserving move
/// with the smallest resulting s_total.  Returns the best point reached.
struct ClimbOutcome {
  Candidate candidate;
  Evaluation eval;
  int evaluations = 0;
  int steps = 0;
};

/// Climbs from `start`, whose evaluation the caller already holds; that
/// evaluation still counts as the climb's first.
ClimbOutcome hill_climb(const MoveContext& ctx, Candidate start, Evaluation start_eval,
                        const OptimizeResourcesOptions& options) {
  ClimbOutcome out{std::move(start), std::move(start_eval), 1, 0};

  for (int iter = 0; iter < options.max_climb_iterations; ++iter) {
    const auto moves = ctx.generate_neighbors(out.candidate, out.eval,
                                              options.neighbors_per_step);
    std::optional<Candidate> best_next;
    std::optional<Evaluation> best_next_eval;
    for (const Move& move : moves) {
      Candidate neighbor = out.candidate;
      if (!ctx.apply(move, neighbor)) continue;
      Evaluation eval = ctx.evaluate(neighbor);
      ++out.evaluations;
      // SelectMove: minimize s_total without leaving the schedulable
      // region (unschedulable neighbors are discarded outright).
      if (!eval.schedulable) continue;
      if (!best_next_eval || eval.s_total < best_next_eval->s_total) {
        best_next = std::move(neighbor);
        best_next_eval = std::move(eval);
      }
    }
    if (!best_next_eval) break;
    // Strict improvement required ("until s_total has not changed").
    if (out.eval.schedulable && best_next_eval->s_total >= out.eval.s_total) break;
    out.candidate = std::move(*best_next);
    out.eval = std::move(*best_next_eval);
    ++out.steps;
  }
  return out;
}

}  // namespace

OptimizeResourcesResult minimize_buffers_from(
    const MoveContext& ctx, const Candidate& start,
    const OptimizeResourcesOptions& options) {
  Evaluation start_eval = ctx.evaluate(start);
  const std::int64_t s_total_before = start_eval.s_total;
  // A climb never ends worse than its start: it steps only to schedulable
  // points, each with a smaller s_total than a schedulable predecessor.
  ClimbOutcome outcome = hill_climb(ctx, start, std::move(start_eval), options);
  return {std::move(outcome.candidate), std::move(outcome.eval), s_total_before,
          outcome.evaluations, outcome.steps};
}

OptimizeResourcesResult optimize_resources(const MoveContext& ctx,
                                           const OptimizeResourcesOptions& options) {
  // Step 1: find a schedulable system and collect seeds.
  return optimize_resources(ctx, optimize_schedule(ctx, options.schedule), options);
}

OptimizeResourcesResult optimize_resources(const MoveContext& ctx,
                                           const OptimizeScheduleResult& step1,
                                           const OptimizeResourcesOptions& options) {
  const obs::Span span("or.run");
  OptimizeResourcesResult result{step1.best, step1.best_eval, 0,
                                 step1.evaluations, 0};
  result.s_total_before = step1.best_eval.s_total;

  if (!step1.best_eval.schedulable) {
    // The paper would modify the mapping/architecture here; mapping is an
    // input to this library, so report the best effort.
    MCS_LOG(Warn) << "optimize_resources: no schedulable configuration found "
                     "in step 1; returning best-effort result";
    return result;
  }

  // Step 2: hill climb from each seed.
  std::size_t starts = 0;
  for (const SeedSolution& seed : step1.seeds) {
    if (starts >= options.max_seed_starts) break;
    if (!seed.eval.schedulable) continue;
    ++starts;
    ClimbOutcome outcome = hill_climb(ctx, seed.candidate, seed.eval, options);
    result.evaluations += outcome.evaluations;
    result.climb_steps += outcome.steps;
    if (outcome.eval.schedulable &&
        outcome.eval.s_total < result.best_eval.s_total) {
      result.best = std::move(outcome.candidate);
      result.best_eval = std::move(outcome.eval);
    }
  }

  MCS_LOG(Info) << "optimize_resources: s_total " << result.s_total_before
                << " -> " << result.best_eval.s_total << " in "
                << result.evaluations << " evaluations";
  return result;
}

}  // namespace mcs::core
