// Exactness of OptimizeSchedule's shortcuts: the analysis HOPA hands back
// is the evaluation, a repeated TDMA round skips HOPA, every seed carries
// its own candidate's evaluation into OR's hill climbs, OR can start from
// an OS result the caller already holds, and `evaluations` counts the
// MultiClusterScheduling runs actually performed.
#include <gtest/gtest.h>

#include "mcs/core/optimize_resources.hpp"
#include "mcs/core/optimize_schedule.hpp"
#include "mcs/gen/generator.hpp"
#include "mcs/gen/paper_example.hpp"
#include "mcs/gen/suites.hpp"

namespace mcs::core {
namespace {

struct System {
  model::Application app;
  arch::Platform platform;
};

System paper_example() {
  auto ex = gen::make_paper_example();
  return {std::move(ex.app), std::move(ex.platform)};
}

/// The second-smallest Figure 9a/b system (four nodes, 160 processes).
System fig9ab_system() {
  auto sys = gen::generate(gen::figure9ab_suite(1).at(1).params);
  return {std::move(sys.app), std::move(sys.platform)};
}

OptimizeResourcesOptions small_budgets() {
  OptimizeResourcesOptions o;
  o.schedule.hopa.max_iterations = 3;
  o.max_seed_starts = 3;
  o.max_climb_iterations = 4;
  o.neighbors_per_step = 12;
  return o;
}

std::uint64_t mcs_runs(const MoveContext& ctx) {
  return ctx.delta_stats().full_runs + ctx.delta_stats().delta_runs;
}

void expect_same_genotype(const Candidate& a, const Candidate& b) {
  ASSERT_EQ(a.tdma.num_slots(), b.tdma.num_slots());
  for (std::size_t i = 0; i < a.tdma.num_slots(); ++i) {
    EXPECT_EQ(a.tdma.slot(i), b.tdma.slot(i)) << "slot " << i;
  }
  EXPECT_EQ(a.process_priorities, b.process_priorities);
  EXPECT_EQ(a.message_priorities, b.message_priorities);
  EXPECT_EQ(a.pins.process_release, b.pins.process_release);
  EXPECT_EQ(a.pins.message_tx, b.pins.message_tx);
}

class Step1Reuse : public ::testing::TestWithParam<bool> {
protected:
  [[nodiscard]] System system() const {
    return GetParam() ? fig9ab_system() : paper_example();
  }
};

TEST_P(Step1Reuse, OsEvaluationsCountMcsRuns) {
  const System sys = system();
  const MoveContext ctx(sys.app, sys.platform, McsOptions{});
  // The run counters only tick while incremental evaluation is enabled.
  if (ctx.workspace().delta_mode() == DeltaMode::Off) {
    ctx.workspace().set_delta_mode(DeltaMode::On);
  }
  const std::uint64_t before = mcs_runs(ctx);
  const auto os = optimize_schedule(ctx, small_budgets().schedule);
  EXPECT_GT(os.evaluations, 0);
  EXPECT_EQ(static_cast<std::uint64_t>(os.evaluations), mcs_runs(ctx) - before);
}

void expect_bit_identical(const Evaluation& held, const Evaluation& fresh) {
  std::string why;
  EXPECT_TRUE(bit_identical(held.mcs, fresh.mcs, &why)) << why;
  EXPECT_EQ(held.delta.f1, fresh.delta.f1);
  EXPECT_EQ(held.delta.f2, fresh.delta.f2);
  EXPECT_EQ(held.s_total, fresh.s_total);
  EXPECT_EQ(held.schedulable, fresh.schedulable);
}

// The best evaluation and every seed's evaluation are handed on without
// re-analysis, so each must equal a fresh analysis of its own candidate.
// The seed list is sorted and deduplicated as it grows, so this also
// catches a candidate paired with another trial's evaluation.
TEST_P(Step1Reuse, AdoptedAnalysisMatchesUncachedEvaluation) {
  const System sys = system();
  McsOptions options;
  options.analysis.offset_pruning = false;
  options.analysis.ttp_queue_model = TtpQueueModel::PaperFormula;
  const MoveContext ctx(sys.app, sys.platform, options);
  const auto os = optimize_schedule(ctx, small_budgets().schedule);
  expect_bit_identical(os.best_eval, ctx.evaluate(os.best));
  ASSERT_GE(os.seeds.size(), 2u);
  for (std::size_t k = 0; k < os.seeds.size(); ++k) {
    SCOPED_TRACE("seed " + std::to_string(k));
    expect_bit_identical(os.seeds[k].eval, ctx.evaluate(os.seeds[k].candidate));
  }
}

TEST_P(Step1Reuse, OrFromHeldOsResultEqualsFreshOr) {
  const System sys = system();
  const OptimizeResourcesOptions o = small_budgets();
  const MoveContext fresh_ctx(sys.app, sys.platform, McsOptions{});
  const auto fresh = optimize_resources(fresh_ctx, o);
  const MoveContext ctx(sys.app, sys.platform, McsOptions{});
  const auto reused = optimize_resources(ctx, optimize_schedule(ctx, o.schedule), o);

  expect_same_genotype(reused.best, fresh.best);
  EXPECT_EQ(reused.best_eval.delta.f1, fresh.best_eval.delta.f1);
  EXPECT_EQ(reused.best_eval.delta.f2, fresh.best_eval.delta.f2);
  EXPECT_EQ(reused.best_eval.s_total, fresh.best_eval.s_total);
  EXPECT_EQ(reused.s_total_before, fresh.s_total_before);
  EXPECT_EQ(reused.evaluations, fresh.evaluations);
}

INSTANTIATE_TEST_SUITE_P(Systems, Step1Reuse, ::testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "fig9ab" : "paper_example";
                         });

}  // namespace
}  // namespace mcs::core
