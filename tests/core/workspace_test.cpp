// Correctness of the AnalysisWorkspace reuse layer: a workspace-reused
// analysis must be bit-identical to a fresh-state analysis (offsets,
// responses, jitters, deliveries, buffer bounds, convergence flags).
#include <gtest/gtest.h>

#include "mcs/core/moves.hpp"
#include "mcs/core/multi_cluster_scheduling.hpp"
#include "mcs/core/response_time_analysis.hpp"
#include "mcs/gen/generator.hpp"
#include "mcs/gen/paper_example.hpp"

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

}  // namespace
}  // namespace mcs::core
