// The structure-of-arrays recurrence kernel (AnalysisKernel::Packed) is a
// pure evaluation-order optimization: gathered pool state, precomputed
// interference-pair classes, cached candidate lists, intra-run skips and
// in-place Gauss-Seidel on the scratch arrays.  It must be bit-identical to the original scalar code — kept as
// AnalysisKernel::Reference — on every system, fresh or through a reused
// workspace, and they must not perturb a single optimizer decision: the
// SF/OS/OR/SA/HOPA trajectories (accept/reject sequences, final genotype)
// have to match the seed behavior exactly, with the delta machinery on or
// off.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "mcs/core/hopa.hpp"
#include "mcs/core/moves.hpp"
#include "mcs/core/multi_cluster_scheduling.hpp"
#include "mcs/core/optimize_resources.hpp"
#include "mcs/core/simulated_annealing.hpp"
#include "mcs/core/straightforward.hpp"
#include "mcs/gen/generator.hpp"
#include "mcs/gen/paper_example.hpp"
#include "mcs/gen/suites.hpp"
#include "mcs/gen/textio.hpp"
#include "mcs/model/validation.hpp"
#include "mcs/util/rng.hpp"

namespace mcs::core {
namespace {

gen::GeneratorParams small_system(std::uint64_t seed, std::size_t tt = 2,
                                  std::size_t et = 2) {
  gen::GeneratorParams p;
  p.tt_nodes = tt;
  p.et_nodes = et;
  p.processes_per_node = 8;
  p.processes_per_graph = 16;
  p.seed = seed;
  p.wcet_min = 50;
  p.wcet_max = 400;
  return p;
}

/// The paper example plus a period-1 graph: two otherwise idle ETC nodes
/// exchanging one CAN message every time unit.  Period 1 is a legal model
/// input (model::validate only warns about the full nodes), and it makes 1
/// a divisor of the CAN recurrences; whenever the message outranks the
/// paper's traffic, that traffic diverges to the cap.
constexpr const char* kPeriodOneSystem = R"(
ttp 1 0
can linear 10 0
gateway_transfer 5 10
node N1 tt
node N2 et
node N3 et
node N4 et
node NG gateway
graph G1 240 200
process P1 G1 N1 30
process P2 G1 N2 20
process P3 G1 N2 20
process P4 G1 N1 30
message m1 P1 P2 8
message m2 P1 P3 8
message m3 P2 P4 8
graph G2 1 1
process Q1 G2 N3 1
process Q2 G2 N4 1
message q1 Q1 Q2 1
)";

void expect_same_candidate(const Candidate& a, const Candidate& b) {
  ASSERT_EQ(a.tdma.num_slots(), b.tdma.num_slots());
  for (std::size_t s = 0; s < a.tdma.num_slots(); ++s) {
    EXPECT_EQ(a.tdma.slot(s).owner, b.tdma.slot(s).owner) << "slot " << s;
    EXPECT_EQ(a.tdma.slot(s).length, b.tdma.slot(s).length) << "slot " << s;
  }
  EXPECT_EQ(a.process_priorities, b.process_priorities);
  EXPECT_EQ(a.message_priorities, b.message_priorities);
  EXPECT_EQ(a.pins.process_release, b.pins.process_release);
  EXPECT_EQ(a.pins.message_tx, b.pins.message_tx);
}

void expect_same_evaluation(const Evaluation& a, const Evaluation& b) {
  EXPECT_EQ(a.delta.f1, b.delta.f1);
  EXPECT_EQ(a.delta.f2, b.delta.f2);
  EXPECT_EQ(a.s_total, b.s_total);
  EXPECT_EQ(a.schedulable, b.schedulable);
  std::string why;
  EXPECT_TRUE(bit_identical(a.mcs, b.mcs, &why)) << why;
}

/// A deterministic family of candidates exercising every move kind.
std::vector<Candidate> candidate_family(const MoveContext& ctx) {
  std::vector<Candidate> family;
  Candidate base = Candidate::initial(ctx.app(), ctx.platform());
  family.push_back(base);
  Candidate c = base;
  if (ctx.can_messages().size() >= 2) {
    (void)ctx.apply(SwapMessagePrioritiesMove{ctx.can_messages().front(),
                                              ctx.can_messages().back()},
                    c);
    family.push_back(c);
  }
  if (base.tdma.num_slots() >= 2) {
    c = base;
    (void)ctx.apply(SwapSlotsMove{0, base.tdma.num_slots() - 1}, c);
    family.push_back(c);
    c = base;
    (void)ctx.apply(ResizeSlotMove{0, base.tdma.slot(0).length +
                                          base.tdma.params().time_per_byte * 8},
                    c);
    family.push_back(c);
  }
  if (!ctx.tt_processes().empty()) {
    c = base;
    (void)ctx.apply(ShiftProcessMove{ctx.tt_processes().front(), 64}, c);
    family.push_back(c);
  }
  for (std::size_t i = 0; i + 1 < ctx.et_processes().size(); ++i) {
    const auto a = ctx.et_processes()[i];
    const auto b = ctx.et_processes()[i + 1];
    if (ctx.app().process(a).node != ctx.app().process(b).node) continue;
    c = base;
    (void)ctx.apply(SwapProcessPrioritiesMove{a, b}, c);
    family.push_back(c);
    break;
  }
  return family;
}

/// candidate_family plus a seeded random walk over every move kind, so the
/// kernel matrix also sees configurations only a search reaches (e.g. an
/// interferer released exactly at the end of a busy window).
std::vector<Candidate> walk_family(const MoveContext& ctx, int steps) {
  std::vector<Candidate> family = candidate_family(ctx);
  util::Rng rng(77);
  Candidate current = family.front();
  const Evaluation base_eval = ctx.evaluate_uncached(current);
  for (int step = 0; step < steps; ++step) {
    if (ctx.apply(ctx.random_move(current, base_eval, rng), current)) {
      family.push_back(current);
    }
  }
  return family;
}

TEST(SoaLayout, PackedKernelBitIdenticalToReference) {
  struct SystemUnderTest {
    model::Application app;
    arch::Platform platform;
  };
  std::vector<SystemUnderTest> systems;
  {
    auto ex = gen::make_paper_example();
    systems.push_back({std::move(ex.app), std::move(ex.platform)});
  }
  for (const auto& point : gen::tiny_suite(1)) {
    auto sys = gen::generate(point.params);
    systems.push_back({std::move(sys.app), std::move(sys.platform)});
  }
  for (const std::uint64_t seed : {11u, 22u, 33u}) {
    auto sys = gen::generate(small_system(seed));
    systems.push_back({std::move(sys.app), std::move(sys.platform)});
  }
  {
    std::istringstream in(kPeriodOneSystem);
    auto sys = gen::parse_system(in);
    ASSERT_TRUE(model::validate(sys.app, sys.platform).ok());
    systems.push_back({std::move(sys.app), std::move(sys.platform)});
  }

  McsOptions packed;
  packed.analysis.kernel = AnalysisKernel::Packed;
  McsOptions reference;
  reference.analysis.kernel = AnalysisKernel::Reference;
  for (const SystemUnderTest& sut : systems) {
    // The Packed kernel must reproduce the Reference oracle bit-for-bit on
    // every candidate, through a reused workspace, with the delta machinery
    // off, on, and cross-checked against a cold run.
    const MoveContext ctx(sut.app, sut.platform, McsOptions{});
    const std::vector<Candidate> family = walk_family(ctx, 100);
    for (const DeltaMode mode : {DeltaMode::Off, DeltaMode::On, DeltaMode::Check}) {
      AnalysisWorkspace ws_packed(sut.app, sut.platform);
      ws_packed.set_delta_mode(mode);
      AnalysisWorkspace ws_reference(sut.app, sut.platform);
      for (const Candidate& cand : family) {
        SystemConfig cfg_p = cand.to_config(sut.app);
        const McsResult p = multi_cluster_scheduling(
            sut.app, sut.platform, cfg_p, cand.pins, packed, ws_packed);
        SystemConfig cfg_r = cand.to_config(sut.app);
        const McsResult r = multi_cluster_scheduling(
            sut.app, sut.platform, cfg_r, cand.pins, reference, ws_reference);
        std::string why;
        EXPECT_TRUE(bit_identical(p, r, &why))
            << "packed vs reference (delta mode " << static_cast<int>(mode)
            << "): " << why;
        EXPECT_EQ(cfg_p.process_offsets(), cfg_r.process_offsets());
        EXPECT_EQ(cfg_p.message_offsets(), cfg_r.message_offsets());
      }
    }
  }
}

// PackedScratch + candidate-cache memory behavior: one workspace driven
// across a cross-suite walk (paper example, tiny suite, generated small
// systems; every move kind) must reach its high-water scratch capacity in
// the first round and never grow again — and the reused scratch must stay
// bit-identical to a fresh workspace on every single evaluation.
TEST(SoaLayout, ScratchFootprintStabilizesAndReuseStaysExact) {
  struct SystemUnderTest {
    model::Application app;
    arch::Platform platform;
  };
  std::vector<SystemUnderTest> systems;
  {
    auto ex = gen::make_paper_example();
    systems.push_back({std::move(ex.app), std::move(ex.platform)});
  }
  for (const auto& point : gen::tiny_suite(1)) {
    auto sys = gen::generate(point.params);
    systems.push_back({std::move(sys.app), std::move(sys.platform)});
  }
  for (const std::uint64_t seed : {11u, 33u}) {
    auto sys = gen::generate(small_system(seed));
    systems.push_back({std::move(sys.app), std::move(sys.platform)});
  }

  McsOptions packed;
  packed.analysis.kernel = AnalysisKernel::Packed;
  for (const SystemUnderTest& sut : systems) {
    const MoveContext ctx(sut.app, sut.platform, packed);
    const std::vector<Candidate> family = candidate_family(ctx);
    AnalysisWorkspace reused(sut.app, sut.platform);
    std::size_t high_water = 0;
    for (int round = 0; round < 3; ++round) {
      for (const Candidate& cand : family) {
        SystemConfig cfg = cand.to_config(sut.app);
        const McsResult warm = multi_cluster_scheduling(
            sut.app, sut.platform, cfg, cand.pins, packed, reused);
        AnalysisWorkspace fresh_ws(sut.app, sut.platform);
        SystemConfig cfg_f = cand.to_config(sut.app);
        const McsResult fresh = multi_cluster_scheduling(
            sut.app, sut.platform, cfg_f, cand.pins, packed, fresh_ws);
        std::string why;
        EXPECT_TRUE(bit_identical(warm, fresh, &why))
            << "reused vs fresh scratch: " << why;
      }
      if (round == 0) {
        high_water = reused.scratch_footprint_bytes();
        EXPECT_GT(high_water, 0u);
      } else {
        EXPECT_EQ(reused.scratch_footprint_bytes(), high_water)
            << "scratch grew after warm-up round (unbounded growth)";
      }
    }
  }
}

TEST(SoaLayout, ReusedScratchMatchesFreshAcrossDeltaModes) {
  for (const std::uint64_t seed : {11u, 33u}) {
    const auto sys = gen::generate(small_system(seed));
    // One context per mode, each reusing ONE workspace (and its packed
    // scratch buffers) across the whole family, twice; the ground truth
    // is a throwaway cold context per candidate.
    const MoveContext ctx_on(sys.app, sys.platform, McsOptions{});
    ctx_on.workspace().set_delta_mode(DeltaMode::On);
    const MoveContext ctx_off(sys.app, sys.platform, McsOptions{});
    ctx_off.workspace().set_delta_mode(DeltaMode::Off);

    for (int round = 0; round < 2; ++round) {
      for (const Candidate& cand : candidate_family(ctx_off)) {
        const Evaluation on = ctx_on.evaluate_uncached(cand);
        const Evaluation off = ctx_off.evaluate_uncached(cand);
        const MoveContext fresh(sys.app, sys.platform, McsOptions{});
        fresh.workspace().set_delta_mode(DeltaMode::Off);
        const Evaluation cold = fresh.evaluate_uncached(cand);
        expect_same_evaluation(on, cold);
        expect_same_evaluation(off, cold);
      }
    }
    EXPECT_GT(ctx_on.delta_stats().delta_runs, 0u);
    EXPECT_EQ(ctx_off.delta_stats().delta_runs, 0u);
  }
}

// The searches must take the exact same path with the delta machinery on
// as with it off (the seed behavior): same accept/reject sequence, same
// evaluation counts, same final genotype.  A single divergent analysis
// value anywhere in the walk would cascade into a different trajectory.
class TrajectoryInvariance : public ::testing::Test {
protected:
  void SetUp() override {
    auto sys = gen::generate(small_system(11));
    app_.emplace(std::move(sys.app));
    platform_.emplace(std::move(sys.platform));
    on_.emplace(*app_, *platform_, McsOptions{});
    on_->workspace().set_delta_mode(DeltaMode::On);
    off_.emplace(*app_, *platform_, McsOptions{});
    off_->workspace().set_delta_mode(DeltaMode::Off);
  }

  std::optional<model::Application> app_;
  std::optional<arch::Platform> platform_;
  std::optional<MoveContext> on_, off_;
};

TEST_F(TrajectoryInvariance, Straightforward) {
  const StraightforwardResult a = straightforward(*on_);
  const StraightforwardResult b = straightforward(*off_);
  expect_same_candidate(a.candidate, b.candidate);
  expect_same_evaluation(a.evaluation, b.evaluation);
}

TEST_F(TrajectoryInvariance, Hopa) {
  const arch::TdmaRound tdma = Candidate::initial(*app_, *platform_).tdma;
  const HopaResult a =
      hopa_priorities(*app_, *platform_, tdma, on_->workspace());
  const HopaResult b =
      hopa_priorities(*app_, *platform_, tdma, off_->workspace());
  EXPECT_EQ(a.process_priorities, b.process_priorities);
  EXPECT_EQ(a.message_priorities, b.message_priorities);
  EXPECT_EQ(a.delta.f1, b.delta.f1);
  EXPECT_EQ(a.delta.f2, b.delta.f2);
  EXPECT_EQ(a.best_iteration, b.best_iteration);
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_TRUE(bit_identical(a.mcs, b.mcs));
  EXPECT_GT(on_->delta_stats().delta_runs, 0u);
}

TEST_F(TrajectoryInvariance, OptimizeScheduleAndResources) {
  OptimizeScheduleOptions schedule_options;
  schedule_options.max_seeds = 2;
  schedule_options.max_lengths_per_slot = 3;
  const OptimizeScheduleResult os_a = optimize_schedule(*on_, schedule_options);
  const OptimizeScheduleResult os_b = optimize_schedule(*off_, schedule_options);
  expect_same_candidate(os_a.best, os_b.best);
  expect_same_evaluation(os_a.best_eval, os_b.best_eval);
  EXPECT_EQ(os_a.evaluations, os_b.evaluations);
  ASSERT_EQ(os_a.seeds.size(), os_b.seeds.size());
  for (std::size_t i = 0; i < os_a.seeds.size(); ++i) {
    expect_same_candidate(os_a.seeds[i].candidate, os_b.seeds[i].candidate);
  }

  OptimizeResourcesOptions resources_options;
  resources_options.schedule = schedule_options;
  resources_options.max_seed_starts = 2;
  resources_options.max_climb_iterations = 4;
  resources_options.neighbors_per_step = 8;
  const OptimizeResourcesResult or_a = optimize_resources(*on_, resources_options);
  const OptimizeResourcesResult or_b = optimize_resources(*off_, resources_options);
  expect_same_candidate(or_a.best, or_b.best);
  expect_same_evaluation(or_a.best_eval, or_b.best_eval);
  EXPECT_EQ(or_a.s_total_before, or_b.s_total_before);
  EXPECT_EQ(or_a.evaluations, or_b.evaluations);
  EXPECT_EQ(or_a.climb_steps, or_b.climb_steps);
  EXPECT_GT(on_->delta_stats().delta_runs, 0u);
}

TEST_F(TrajectoryInvariance, SimulatedAnnealing) {
  SaOptions options;
  options.seed = 9;
  options.max_evaluations = 500;
  const Candidate start = Candidate::initial(*app_, *platform_);
  const SaResult a = simulated_annealing(*on_, start, options);
  const SaResult b = simulated_annealing(*off_, start, options);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.accepted_moves, b.accepted_moves);
  EXPECT_EQ(a.best_cost, b.best_cost);
  expect_same_candidate(a.best, b.best);
  expect_same_evaluation(a.best_eval, b.best_eval);
  EXPECT_GT(on_->delta_stats().delta_runs, 0u);
}

}  // namespace
}  // namespace mcs::core
