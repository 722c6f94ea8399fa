// Tests of the synthesis heuristics (HOPA, SF, OS, OR, SAS/SAR) on the
// paper's running example, where the optimal answers are known from
// Figure 4: the S1-first slot order is schedulable (R = 190), the
// SG-first order is not (R = 210).
#include <gtest/gtest.h>

#include "mcs/core/hopa.hpp"
#include "mcs/core/optimize_resources.hpp"
#include "mcs/core/optimize_schedule.hpp"
#include "mcs/core/simulated_annealing.hpp"
#include "mcs/core/straightforward.hpp"
#include "mcs/gen/paper_example.hpp"

namespace mcs::core {
namespace {

using gen::PaperExample;

MoveContext make_ctx(const PaperExample& ex) {
  return MoveContext(ex.app, ex.platform, McsOptions{});
}

TEST(Candidate, InitialHasUniquePriorities) {
  const auto ex = gen::make_paper_example();
  const auto c = Candidate::initial(ex.app, ex.platform);
  std::set<Priority> prio(c.message_priorities.begin(), c.message_priorities.end());
  EXPECT_EQ(prio.size(), c.message_priorities.size());
  EXPECT_EQ(c.tdma.num_slots(), 2u);
}

TEST(MoveContext, PoolsArePartitionedByCluster) {
  const auto ex = gen::make_paper_example();
  const auto ctx = make_ctx(ex);
  EXPECT_EQ(ctx.et_processes(), (std::vector<util::ProcessId>{ex.p2, ex.p3}));
  EXPECT_EQ(ctx.tt_processes(), (std::vector<util::ProcessId>{ex.p1, ex.p4}));
  // All three messages touch the CAN bus in this example.
  EXPECT_EQ(ctx.can_messages().size(), 3u);
  // m1/m2 have a TTP leg.
  EXPECT_EQ(ctx.tt_messages().size(), 2u);
}

TEST(Moves, ApplyAndNoOpDetection) {
  const auto ex = gen::make_paper_example();
  const auto ctx = make_ctx(ex);
  Candidate c = Candidate::initial(ex.app, ex.platform);

  EXPECT_TRUE(ctx.apply(SwapSlotsMove{0, 1}, c));
  EXPECT_FALSE(ctx.apply(SwapSlotsMove{0, 0}, c));
  EXPECT_TRUE(ctx.apply(ResizeSlotMove{0, 16}, c));
  EXPECT_FALSE(ctx.apply(ResizeSlotMove{0, 16}, c));  // already 16
  EXPECT_TRUE(ctx.apply(SwapMessagePrioritiesMove{ex.m1, ex.m3}, c));
  EXPECT_TRUE(ctx.apply(ShiftProcessMove{ex.p4, 100}, c));
  EXPECT_EQ(c.pins.process_release[ex.p4.index()], 100);
  EXPECT_TRUE(ctx.apply(ShiftMessageMove{ex.m2, 130}, c));
  EXPECT_EQ(c.pins.message_tx[ex.m2.index()], 130);
}

TEST(Moves, EvaluateMatchesDirectAnalysis) {
  const auto ex = gen::make_paper_example();
  const auto ctx = make_ctx(ex);
  // Build the Figure 4a candidate explicitly.
  Candidate c = Candidate::initial(ex.app, ex.platform);
  c.tdma = arch::TdmaRound({arch::Slot{ex.ng, 20}, arch::Slot{ex.n1, 20}},
                           ex.platform.ttp());
  c.message_priorities[ex.m1.index()] = 0;
  c.message_priorities[ex.m2.index()] = 1;
  c.message_priorities[ex.m3.index()] = 2;
  c.process_priorities[ex.p3.index()] = 0;
  c.process_priorities[ex.p2.index()] = 1;
  const Evaluation eval = ctx.evaluate(c);
  EXPECT_FALSE(eval.schedulable);
  EXPECT_EQ(eval.delta.f1, 10);
  EXPECT_EQ(eval.s_total, 32);
}

TEST(Moves, NeighborsAreApplicableAndBounded) {
  const auto ex = gen::make_paper_example();
  const auto ctx = make_ctx(ex);
  Candidate c = Candidate::initial(ex.app, ex.platform);
  const Evaluation eval = ctx.evaluate(c);
  const auto moves = ctx.generate_neighbors(c, eval, 16);
  EXPECT_LE(moves.size(), 16u);
  EXPECT_FALSE(moves.empty());
  for (const Move& m : moves) {
    Candidate copy = c;
    (void)ctx.apply(m, copy);  // must not throw
    EXPECT_FALSE(to_string(m).empty());
  }
}

TEST(Moves, RandomMoveIsDeterministicPerSeed) {
  const auto ex = gen::make_paper_example();
  const auto ctx = make_ctx(ex);
  Candidate c = Candidate::initial(ex.app, ex.platform);
  const Evaluation eval = ctx.evaluate(c);
  util::Rng r1(7), r2(7);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(to_string(ctx.random_move(c, eval, r1)),
              to_string(ctx.random_move(c, eval, r2)));
  }
}

TEST(Hopa, InitialAssignmentOrdersByPathProgress) {
  const auto ex = gen::make_paper_example();
  const auto dm = initial_deadline_monotonic(ex.app, ex.platform);
  // P2 sits mid-path (deeper than P3, a leaf with shallow progress? both
  // at depth 2) — the essential property: priorities are unique.
  std::set<Priority> prio(dm.process_priorities.begin(), dm.process_priorities.end());
  EXPECT_EQ(prio.size(), ex.app.num_processes());
  // m1/m2 (sent by P1 at depth 1) must outrank m3 (sent by P2 at depth 2).
  EXPECT_LT(dm.message_priorities[ex.m1.index()],
            dm.message_priorities[ex.m3.index()]);
  EXPECT_LT(dm.message_priorities[ex.m2.index()],
            dm.message_priorities[ex.m3.index()]);
}

TEST(Hopa, FindsSchedulablePrioritiesForGoodBus) {
  const auto ex = gen::make_paper_example();
  AnalysisWorkspace ws(ex.app, ex.platform);
  // S1-first round: schedulable with the right priorities (Figure 4b).
  const arch::TdmaRound round({arch::Slot{ex.n1, 20}, arch::Slot{ex.ng, 20}},
                              ex.platform.ttp());
  const auto hopa = hopa_priorities(ex.app, ex.platform, round, ws);
  EXPECT_TRUE(hopa.delta.schedulable())
      << "f1=" << hopa.delta.f1 << " f2=" << hopa.delta.f2;
}

TEST(Straightforward, EvaluatesWithoutSearch) {
  const auto ex = gen::make_paper_example();
  const auto ctx = make_ctx(ex);
  const auto sf = straightforward(ctx);
  // SF must produce *a* verdict; on this tiny example the ascending node
  // order happens to be the good one (N1 before NG).
  EXPECT_EQ(sf.candidate.tdma.slot(0).owner, ex.n1);
  EXPECT_GE(sf.evaluation.s_total, 0);
}

TEST(OptimizeSchedule, FindsSchedulableConfiguration) {
  const auto ex = gen::make_paper_example();
  const auto ctx = make_ctx(ex);
  OptimizeScheduleOptions options;
  options.hopa.max_iterations = 3;
  const auto os = optimize_schedule(ctx, options);
  EXPECT_TRUE(os.best_eval.schedulable)
      << "f1=" << os.best_eval.delta.f1 << " f2=" << os.best_eval.delta.f2;
  EXPECT_FALSE(os.seeds.empty());
  EXPECT_GT(os.evaluations, 0);
  // OS is at least as good as the straightforward baseline.
  const auto sf = straightforward(ctx);
  EXPECT_LE(os.best_eval.delta.delta(), sf.evaluation.delta.delta());
}

TEST(OptimizeSchedule, SeedsAreSortedSchedulableFirst) {
  const auto ex = gen::make_paper_example();
  const auto ctx = make_ctx(ex);
  OptimizeScheduleOptions options;
  options.hopa.max_iterations = 2;
  const auto os = optimize_schedule(ctx, options);
  bool seen_unschedulable = false;
  for (const auto& seed : os.seeds) {
    if (!seed.eval.schedulable) seen_unschedulable = true;
    if (seed.eval.schedulable) {
      EXPECT_FALSE(seen_unschedulable);
    }
  }
}

TEST(OptimizeResources, NeverWorseThanOptimizeSchedule) {
  const auto ex = gen::make_paper_example();
  const auto ctx = make_ctx(ex);
  OptimizeResourcesOptions options;
  options.schedule.hopa.max_iterations = 2;
  options.max_climb_iterations = 8;
  const auto result = optimize_resources(ctx, options);
  EXPECT_TRUE(result.best_eval.schedulable);
  EXPECT_LE(result.best_eval.s_total, result.s_total_before);
}

TEST(OptimizeResources, MinimizeFromFixedStartImprovesOrKeeps) {
  const auto ex = gen::make_paper_example();
  const auto ctx = make_ctx(ex);
  Candidate start = Candidate::initial(ex.app, ex.platform);
  // Use a schedulable start (Figure 4b layout).
  start.tdma = arch::TdmaRound({arch::Slot{ex.n1, 20}, arch::Slot{ex.ng, 20}},
                               ex.platform.ttp());
  start.message_priorities[ex.m1.index()] = 0;
  start.message_priorities[ex.m2.index()] = 1;
  start.message_priorities[ex.m3.index()] = 2;
  OptimizeResourcesOptions options;
  options.max_climb_iterations = 6;
  const auto result = minimize_buffers_from(ctx, start, options);
  EXPECT_LE(result.best_eval.s_total, result.s_total_before);
}

TEST(SimulatedAnnealing, SasReachesSchedulableOnPaperExample) {
  const auto ex = gen::make_paper_example();
  const auto ctx = make_ctx(ex);
  Candidate start = Candidate::initial(ex.app, ex.platform);
  // Start from the BAD layout so SA has to find the slot swap.
  start.tdma = arch::TdmaRound({arch::Slot{ex.ng, 20}, arch::Slot{ex.n1, 20}},
                               ex.platform.ttp());
  SaOptions options;
  options.objective = SaObjective::Schedulability;
  options.max_evaluations = 400;
  options.seed = 3;
  const auto result = simulated_annealing(ctx, start, options);
  EXPECT_TRUE(result.best_eval.schedulable)
      << "best cost " << result.best_cost;
}

TEST(SimulatedAnnealing, SarCostPenalizesInfeasible) {
  Evaluation feasible;
  feasible.schedulable = true;
  feasible.s_total = 500;
  Evaluation infeasible;
  infeasible.schedulable = false;
  infeasible.s_total = 10;
  infeasible.delta.f1 = 1;
  EXPECT_LT(sa_cost(SaObjective::BufferSize, feasible),
            sa_cost(SaObjective::BufferSize, infeasible));
}

TEST(SimulatedAnnealing, RespectsEvaluationBudget) {
  const auto ex = gen::make_paper_example();
  const auto ctx = make_ctx(ex);
  const Candidate start = Candidate::initial(ex.app, ex.platform);
  SaOptions options;
  options.max_evaluations = 25;
  const auto result = simulated_annealing(ctx, start, options);
  EXPECT_LE(result.evaluations, 25);
}

}  // namespace
}  // namespace mcs::core
