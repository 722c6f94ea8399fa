// Ablation: the "intelligence" of OptimizeResources' seeding (§5.1).
//
// The paper argues the hill climbing should start from the seed solutions
// recorded by OptimizeSchedule (best-delta and best-s_total configs)
// rather than from arbitrary points.  This compares, at equal climbing
// budget on the Figure 9c systems with 30 gateway messages: (a) OR seeded
// by OS, (b) hill climbing from the plain straightforward configuration,
// (c) hill climbing from random priority-shuffled configurations.
//
// Run:  ./seeding_ablation
#include <cstdio>
#include <iostream>

#include "mcs/core/optimize_resources.hpp"
#include "mcs/core/straightforward.hpp"
#include "mcs/gen/suites.hpp"
#include "mcs/util/rng.hpp"
#include "mcs/util/stats.hpp"
#include "mcs/util/table.hpp"

using namespace mcs;

namespace {

constexpr std::size_t kSeedsPerDim = 2;
constexpr std::size_t kGatewayMessages = 30;  // one traffic level suffices
/// Unschedulable end points count this many times their buffer need.
constexpr std::int64_t kUnschedulablePenalty = 4;

double penalized_s_total(const core::Evaluation& eval) {
  return static_cast<double>(eval.schedulable ? eval.s_total
                                              : eval.s_total * kUnschedulablePenalty);
}

}  // namespace

int main() {
  core::OptimizeResourcesOptions or_options;
  or_options.schedule.hopa.max_iterations = 3;
  or_options.max_seed_starts = 3;
  or_options.max_climb_iterations = 10;
  or_options.neighbors_per_step = 16;

  util::Accumulator seeded, from_sf, from_random;
  int counted = 0, instances = 0;
  for (const auto& point : gen::figure9c_suite(kSeedsPerDim)) {
    if (point.dimension != kGatewayMessages) continue;
    ++instances;
    const auto sys = gen::generate(point.params);
    const core::MoveContext ctx(sys.app, sys.platform, core::McsOptions{});

    const auto orr = core::optimize_resources(ctx, or_options);
    if (!orr.best_eval.schedulable) continue;

    // Same climbing budget from the straightforward configuration.
    const auto sf = core::straightforward(ctx);
    const auto climb_sf = core::minimize_buffers_from(ctx, sf.candidate, or_options);

    // And from a random priority shuffle of SF.
    util::Rng rng(555 + point.params.seed);
    core::Candidate random_start = sf.candidate;
    rng.shuffle(random_start.process_priorities);
    rng.shuffle(random_start.message_priorities);
    const auto climb_rand =
        core::minimize_buffers_from(ctx, random_start, or_options);

    ++counted;
    seeded.add(static_cast<double>(orr.best_eval.s_total));
    from_sf.add(penalized_s_total(climb_sf.best_eval));
    from_random.add(penalized_s_total(climb_rand.best_eval));
  }

  std::printf("Ablation: OR seeding (160 processes, %zu gateway messages, "
              "%d of %d instances counted)\n\n", kGatewayMessages, counted,
              instances);
  util::Table table({"start", "avg s_total [B]", "note"});
  table.add_row({"OS seed solutions (OR)", util::Table::fmt(seeded.mean(), 0),
                 "the paper's strategy"});
  table.add_row({"straightforward config", util::Table::fmt(from_sf.mean(), 0),
                 "unschedulable starts penalized 4x"});
  table.add_row({"random priorities", util::Table::fmt(from_random.mean(), 0),
                 "unschedulable starts penalized 4x"});
  table.print(std::cout);
  std::printf("\nPaper shape: seeding from OS's best-delta / best-s_total "
              "solutions dominates cold starts at equal budget.\n");
  return 0;
}
