#include "mcs/core/optimize_schedule.hpp"

#include <algorithm>
#include <optional>

#include "mcs/obs/trace.hpp"
#include "mcs/util/log.hpp"

namespace mcs::core {

namespace {

/// Keeps the seed list bounded and sorted: schedulable low-buffer seeds
/// first, then best-delta seeds (the two "intelligent initial solution"
/// families of §5.1).
void record_seed(std::vector<SeedSolution>& seeds, const Candidate& candidate,
                 const Evaluation& eval, std::size_t max_seeds) {
  seeds.push_back(SeedSolution{candidate, eval});
  std::sort(seeds.begin(), seeds.end(),
            [](const SeedSolution& sa, const SeedSolution& sb) {
              const Evaluation& a = sa.eval;
              const Evaluation& b = sb.eval;
              if (a.schedulable != b.schedulable) return a.schedulable;
              if (a.schedulable) {
                if (a.s_total != b.s_total) return a.s_total < b.s_total;
                return a.delta < b.delta;
              }
              return a.delta < b.delta;
            });
  // Drop duplicates by (delta, s_total) to keep the list diverse.
  seeds.erase(std::unique(seeds.begin(), seeds.end(),
                          [](const SeedSolution& sa, const SeedSolution& sb) {
                            const Evaluation& a = sa.eval;
                            const Evaluation& b = sb.eval;
                            return a.s_total == b.s_total &&
                                   a.delta.f1 == b.delta.f1 &&
                                   a.delta.f2 == b.delta.f2;
                          }),
              seeds.end());
  if (seeds.size() > max_seeds) {
    seeds.erase(seeds.begin() + static_cast<std::ptrdiff_t>(max_seeds), seeds.end());
  }
}

}  // namespace

OptimizeScheduleResult optimize_schedule(const MoveContext& ctx,
                                         const OptimizeScheduleOptions& options) {
  const obs::Span span("os.run");
  const model::Application& app = ctx.app();
  const arch::Platform& platform = ctx.platform();

  OptimizeScheduleResult result{Candidate::initial(app, platform), {}, {}, 0};
  Candidate current = result.best;

  // HOPA, and thus the whole evaluation, is a pure function of the TDMA
  // round (OS never pins).  The only round OS proposes twice is the one
  // it just bound: the next position's first trial leaves it unchanged.
  // `bound_eval` is that round's evaluation, so the repeat skips HOPA.
  std::optional<Evaluation> bound_eval;

  // Evaluate a candidate: HOPA priorities for its beta; the analysis of
  // HOPA's winning round is the evaluation.
  auto evaluate_with_hopa = [&](Candidate& cand) -> Evaluation {
    // Every trial starts as a copy of `current`, so an unchanged round
    // means `cand` is `current`, priorities included.
    if (bound_eval && std::ranges::equal(cand.tdma.slots(), current.tdma.slots())) {
      return *bound_eval;
    }
    HopaResult hopa = hopa_priorities(ctx, cand.tdma, options.hopa);
    cand.process_priorities = std::move(hopa.process_priorities);
    cand.message_priorities = std::move(hopa.message_priorities);
    result.evaluations += hopa.runs;
    return ctx.adopt(std::move(hopa.mcs));
  };

  bool have_best = false;
  auto consider = [&](const Candidate& cand, const Evaluation& eval) {
    record_seed(result.seeds, cand, eval, options.max_seeds);
    // psi_best is chosen on the degree of schedulability alone (Figure 8);
    // buffer frugality is the second step's job (OptimizeResources).
    const bool better = !have_best || eval.delta < result.best_eval.delta;
    if (better) {
      result.best = cand;
      result.best_eval = eval;
      have_best = true;
    }
  };

  const std::size_t num_slots = current.tdma.num_slots();
  for (std::size_t position = 0; position < num_slots; ++position) {
    // Try every node currently occupying position..end in this position.
    std::optional<Candidate> best_here;
    std::optional<Evaluation> best_here_eval;

    for (std::size_t from = position; from < num_slots; ++from) {
      Candidate trial = current;
      if (from != position) {
        trial.tdma = trial.tdma.with_swapped_slots(position, from);
      }
      const util::NodeId owner = trial.tdma.slot(position).owner;
      auto lengths = ctx.slot_lengths(owner);
      if (lengths.size() > options.max_lengths_per_slot) {
        lengths.resize(options.max_lengths_per_slot);
      }
      for (const util::Time length : lengths) {
        Candidate sized = trial;
        if (sized.tdma.slot(position).length != length) {
          sized.tdma = sized.tdma.with_slot_length(position, length);
        }
        Evaluation eval = evaluate_with_hopa(sized);
        consider(sized, eval);
        const bool better_here =
            !best_here_eval || eval.delta < best_here_eval->delta;
        if (better_here) {
          best_here = std::move(sized);
          best_here_eval = std::move(eval);
        }
      }
    }
    // Make the binding for this position permanent (S_i = S_best).
    if (best_here) {
      current = std::move(*best_here);
      bound_eval = std::move(best_here_eval);
    }
  }

  MCS_LOG(Info) << "optimize_schedule: " << result.evaluations
                << " evaluations, best delta f1=" << result.best_eval.delta.f1
                << " f2=" << result.best_eval.delta.f2
                << " s_total=" << result.best_eval.s_total;
  return result;
}

}  // namespace mcs::core
