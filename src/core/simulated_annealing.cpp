#include "mcs/core/simulated_annealing.hpp"

#include <chrono>
#include <cmath>

#include "mcs/obs/trace.hpp"
#include "mcs/util/log.hpp"

namespace mcs::core {

double sa_cost(SaObjective objective, const Evaluation& eval) {
  switch (objective) {
    case SaObjective::Schedulability:
      return static_cast<double>(eval.delta.delta());
    case SaObjective::BufferSize: {
      if (eval.schedulable) return static_cast<double>(eval.s_total);
      // Infeasible: dominated by the lateness, offset far above any
      // feasible buffer size.
      return 1e12 + static_cast<double>(eval.delta.f1);
    }
  }
  return 0.0;
}

SaResult simulated_annealing(const MoveContext& ctx, const Candidate& start,
                             const SaOptions& options) {
  const obs::Span span("sa.run", options.seed);
  util::Rng rng(options.seed);

  SaResult result{start, ctx.evaluate(start), 0.0, 1, 0};
  result.best_cost = sa_cost(options.objective, result.best_eval);

  Candidate current = start;
  Evaluation current_eval = result.best_eval;
  double current_cost = result.best_cost;

  // The wall-clock budget check: a clock read is noise next to the fixed
  // point each iteration runs.
  const auto start_time = std::chrono::steady_clock::now();
  auto out_of_time = [&] {
    if (options.max_milliseconds <= 0) return false;
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - start_time);
    return elapsed.count() >= options.max_milliseconds;
  };

  double temperature = options.initial_temperature;
  while (temperature > options.min_temperature &&
         result.evaluations < options.max_evaluations && !out_of_time()) {
    for (int i = 0; i < options.iterations_per_temperature &&
                    result.evaluations < options.max_evaluations && !out_of_time();
         ++i) {
      const Move move = ctx.random_move(current, current_eval, rng);
      Candidate neighbor = current;
      if (!ctx.apply(move, neighbor)) continue;
      Evaluation eval = ctx.evaluate(neighbor);
      ++result.evaluations;
      const double cost = sa_cost(options.objective, eval);
      const double delta_cost = cost - current_cost;
      const bool accept =
          delta_cost <= 0 ||
          rng.uniform_real(0.0, 1.0) < std::exp(-delta_cost / temperature);
      if (!accept) continue;
      current = std::move(neighbor);
      current_eval = std::move(eval);
      current_cost = cost;
      ++result.accepted_moves;
      if (cost < result.best_cost) {
        result.best = current;
        result.best_eval = current_eval;
        result.best_cost = cost;
      }
      if (options.target_cost && result.best_cost <= *options.target_cost) {
        return result;
      }
    }
    temperature *= options.cooling;
  }

  const DeltaStats& delta = ctx.delta_stats();
  MCS_LOG(Info) << "simulated_annealing: best cost " << result.best_cost
                << " after " << result.evaluations << " evaluations ("
                << result.accepted_moves << " accepted; delta runs "
                << delta.delta_runs << ", full runs " << delta.full_runs
                << ", fallbacks " << delta.fallbacks << ")";
  return result;
}

}  // namespace mcs::core
