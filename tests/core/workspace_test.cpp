// Correctness of the AnalysisWorkspace reuse layer and the evaluation
// memoization cache: a workspace-reused analysis must be bit-identical to
// a fresh-state analysis (offsets, responses, jitters, deliveries, buffer
// bounds, convergence flags), and a memoized Evaluation must equal the
// recomputed one.
#include <gtest/gtest.h>

#include "mcs/core/moves.hpp"
#include "mcs/core/multi_cluster_scheduling.hpp"
#include "mcs/core/response_time_analysis.hpp"
#include "mcs/gen/generator.hpp"
#include "mcs/gen/paper_example.hpp"
#include "mcs/util/hash.hpp"

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

void expect_same_analysis(const AnalysisResult& a, const AnalysisResult& b) {
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.outer_iterations, b.outer_iterations);
  EXPECT_EQ(a.diverged_activities, b.diverged_activities);
  EXPECT_EQ(a.process_offsets, b.process_offsets);
  EXPECT_EQ(a.message_offsets, b.message_offsets);
  EXPECT_EQ(a.process_response, b.process_response);
  EXPECT_EQ(a.process_jitter, b.process_jitter);
  EXPECT_EQ(a.process_interference, b.process_interference);
  EXPECT_EQ(a.message_response, b.message_response);
  EXPECT_EQ(a.message_jitter, b.message_jitter);
  EXPECT_EQ(a.message_queue_delay, b.message_queue_delay);
  EXPECT_EQ(a.message_ttp_wait, b.message_ttp_wait);
  EXPECT_EQ(a.message_bytes_ahead, b.message_bytes_ahead);
  EXPECT_EQ(a.message_delivery, b.message_delivery);
  EXPECT_EQ(a.graph_response, b.graph_response);
  EXPECT_EQ(a.buffers.out_can, b.buffers.out_can);
  EXPECT_EQ(a.buffers.out_ttp, b.buffers.out_ttp);
  EXPECT_EQ(a.buffers.out_node, b.buffers.out_node);
}

void expect_same_evaluation(const Evaluation& a, const Evaluation& b) {
  EXPECT_EQ(a.delta.f1, b.delta.f1);
  EXPECT_EQ(a.delta.f2, b.delta.f2);
  EXPECT_EQ(a.s_total, b.s_total);
  EXPECT_EQ(a.schedulable, b.schedulable);
  EXPECT_EQ(a.mcs.converged, b.mcs.converged);
  EXPECT_EQ(a.mcs.iterations, b.mcs.iterations);
  EXPECT_EQ(a.mcs.schedule.process_start, b.mcs.schedule.process_start);
  expect_same_analysis(a.mcs.analysis, b.mcs.analysis);
}

/// A deterministic family of candidates around the initial one: priority
/// swaps, slot swaps/resizes and TTC shifts, exercising every move kind.
std::vector<Candidate> candidate_family(const MoveContext& ctx) {
  std::vector<Candidate> family;
  Candidate base = Candidate::initial(ctx.app(), ctx.platform());
  family.push_back(base);

  Candidate c = base;
  if (ctx.can_messages().size() >= 2) {
    (void)ctx.apply(
        SwapMessagePrioritiesMove{ctx.can_messages().front(), ctx.can_messages().back()},
        c);
    family.push_back(c);
  }
  if (base.tdma.num_slots() >= 2) {
    c = base;
    (void)ctx.apply(SwapSlotsMove{0, base.tdma.num_slots() - 1}, c);
    family.push_back(c);
    c = base;
    (void)ctx.apply(
        ResizeSlotMove{0, base.tdma.slot(0).length + base.tdma.params().time_per_byte * 8},
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

TEST(AnalysisWorkspace, ReusedAnalysisIsBitIdenticalToFresh) {
  for (const std::uint64_t seed : {11u, 22u, 33u}) {
    for (const auto& [tt, et] : {std::pair<std::size_t, std::size_t>{1, 1},
                                 {2, 2},
                                 {3, 1}}) {
      const auto sys = gen::generate(small_system(seed, tt, et));
      const MoveContext ctx(sys.app, sys.platform, McsOptions{});
      AnalysisWorkspace shared(sys.app, sys.platform);

      // Interleave candidates through ONE shared workspace; any state
      // bleeding between runs would diverge from the fresh-state result.
      for (int round = 0; round < 2; ++round) {
        for (const Candidate& cand : candidate_family(ctx)) {
          SystemConfig cfg_ws = cand.to_config(sys.app);
          const McsResult reused = multi_cluster_scheduling(
              sys.app, sys.platform, cfg_ws, cand.pins, McsOptions{}, shared);

          SystemConfig cfg_fresh = cand.to_config(sys.app);
          const model::ReachabilityIndex fresh_reach(sys.app);
          const McsResult fresh = multi_cluster_scheduling(
              sys.app, sys.platform, cfg_fresh, cand.pins, McsOptions{}, fresh_reach);

          EXPECT_EQ(reused.converged, fresh.converged);
          EXPECT_EQ(reused.iterations, fresh.iterations);
          EXPECT_EQ(reused.schedule.process_start, fresh.schedule.process_start);
          expect_same_analysis(reused.analysis, fresh.analysis);
          EXPECT_EQ(cfg_ws.process_offsets(), cfg_fresh.process_offsets());
          EXPECT_EQ(cfg_ws.message_offsets(), cfg_fresh.message_offsets());
        }
      }
    }
  }
}

TEST(AnalysisWorkspace, DirectAnalysisMatchesFreshOnPaperExample) {
  const auto ex = gen::make_paper_example();
  AnalysisWorkspace shared(ex.app, ex.platform);
  for (const auto variant :
       {gen::Figure4Variant::A, gen::Figure4Variant::B, gen::Figure4Variant::C,
        gen::Figure4Variant::CSlotFirst}) {
    SystemConfig cfg = gen::make_figure4_config(ex, variant);
    const auto schedule = sched::list_schedule(
        ex.app, ex.platform, cfg.tdma(), sched::ScheduleConstraints::none(ex.app),
        sched::critical_path_priorities(ex.app));
    AnalysisInput input;
    input.app = &ex.app;
    input.platform = &ex.platform;
    input.config = &cfg;
    input.ttc_schedule = &schedule;
    const AnalysisResult reused = response_time_analysis(input, shared);
    const AnalysisResult fresh = response_time_analysis(input);
    expect_same_analysis(reused, fresh);
  }
}

TEST(AnalysisWorkspace, RejectsMismatchedSystem) {
  const auto ex = gen::make_paper_example();
  const auto other = gen::generate(small_system(7));
  AnalysisWorkspace ws(other.app, other.platform);
  SystemConfig cfg = gen::make_figure4_config(ex, gen::Figure4Variant::A);
  AnalysisInput input;
  input.app = &ex.app;
  input.platform = &ex.platform;
  input.config = &cfg;
  EXPECT_THROW((void)response_time_analysis(input, ws), std::invalid_argument);
}

TEST(EvaluationCache, MemoizedEvaluationEqualsRecomputed) {
  const auto sys = gen::generate(small_system(5));
  const MoveContext ctx(sys.app, sys.platform, McsOptions{});

  const auto family = candidate_family(ctx);
  std::vector<Evaluation> first;
  first.reserve(family.size());
  for (const Candidate& cand : family) first.push_back(ctx.evaluate(cand));
  EXPECT_EQ(ctx.evaluation_cache().misses(), family.size());
  EXPECT_EQ(ctx.evaluation_cache().hits(), 0u);

  // Second pass: every lookup must hit and return the identical result.
  for (std::size_t i = 0; i < family.size(); ++i) {
    const Evaluation cached = ctx.evaluate(family[i]);
    expect_same_evaluation(cached, first[i]);
    // ... and equal a from-scratch recomputation.
    expect_same_evaluation(cached, ctx.evaluate_uncached(family[i]));
  }
  EXPECT_EQ(ctx.evaluation_cache().hits(), family.size());
}

TEST(EvaluationCache, LruEvictionStaysBounded) {
  EvaluationCache cache(2);
  const std::vector<std::int64_t> k1{1}, k2{2}, k3{3};
  Evaluation e1, e2, e3;
  e1.s_total = 1;
  e2.s_total = 2;
  e3.s_total = 3;
  cache.insert(util::fnv1a(k1), k1, e1);
  cache.insert(util::fnv1a(k2), k2, e2);
  EXPECT_NE(cache.find(util::fnv1a(k1), k1), nullptr);  // touch k1: k2 is LRU
  cache.insert(util::fnv1a(k3), k3, e3);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.find(util::fnv1a(k2), k2), nullptr);  // evicted
  const Evaluation* hit1 = cache.find(util::fnv1a(k1), k1);
  const Evaluation* hit3 = cache.find(util::fnv1a(k3), k3);
  ASSERT_NE(hit1, nullptr);
  ASSERT_NE(hit3, nullptr);
  EXPECT_EQ(hit1->s_total, 1);
  EXPECT_EQ(hit3->s_total, 3);
}

TEST(EvaluationCache, GenotypeHashIsStable) {
  const std::vector<std::int64_t> key{4, 8, 15, 16, 23, 42};
  EXPECT_EQ(util::fnv1a(key), util::fnv1a(key));
  std::vector<std::int64_t> other = key;
  other.back() = 43;
  EXPECT_NE(util::fnv1a(key), util::fnv1a(other));
}

}  // namespace
}  // namespace mcs::core
