// Structural properties of the analysis on hand-built systems (the
// randomized cross-validation against the discrete-event simulator lives
// in tests/sim/).
#include <gtest/gtest.h>

#include "mcs/core/multi_cluster_scheduling.hpp"
#include "mcs/gen/paper_example.hpp"

namespace mcs::core {
namespace {

using gen::Figure4Variant;

TEST(AnalysisProperties, RouteClassification) {
  const auto ex = gen::make_paper_example();
  EXPECT_EQ(classify_route(ex.app, ex.platform, ex.m1), MessageRoute::TtToEt);
  EXPECT_EQ(classify_route(ex.app, ex.platform, ex.m2), MessageRoute::TtToEt);
  EXPECT_EQ(classify_route(ex.app, ex.platform, ex.m3), MessageRoute::EtToTt);
  EXPECT_EQ(to_string(MessageRoute::EtToTt), "ET->TT");
}

TEST(AnalysisProperties, ResponseAtLeastWcet) {
  const auto ex = gen::make_paper_example();
  auto cfg = gen::make_figure4_config(ex, Figure4Variant::A);
  const auto r = multi_cluster_scheduling(ex.app, ex.platform, cfg, McsOptions{});
  for (std::size_t i = 0; i < ex.app.num_processes(); ++i) {
    EXPECT_GE(r.analysis.process_response[i], ex.app.processes()[i].wcet);
  }
}

TEST(AnalysisProperties, DeliveryConsistentWithOffsetPlusResponse) {
  const auto ex = gen::make_paper_example();
  auto cfg = gen::make_figure4_config(ex, Figure4Variant::A);
  const auto r = multi_cluster_scheduling(ex.app, ex.platform, cfg, McsOptions{});
  for (std::size_t i = 0; i < ex.app.num_messages(); ++i) {
    EXPECT_EQ(r.analysis.message_delivery[i],
              r.analysis.message_offsets[i] + r.analysis.message_response[i]);
  }
}

TEST(AnalysisProperties, PrecedencePreservedByOffsets) {
  const auto ex = gen::make_paper_example();
  auto cfg = gen::make_figure4_config(ex, Figure4Variant::A);
  const auto r = multi_cluster_scheduling(ex.app, ex.platform, cfg, McsOptions{});
  // O_B >= worst-case arrival of every input message would be too strong
  // for ET processes (arrival spreads into jitter), but offsets must at
  // least respect earliest-completion ordering along every arc.
  for (const auto& m : ex.app.messages()) {
    const auto src_done = r.analysis.process_offsets[m.src.index()] +
                          ex.app.process(m.src).wcet;
    EXPECT_GE(r.analysis.process_offsets[m.dst.index()] +
                  r.analysis.process_jitter[m.dst.index()] +
                  r.analysis.process_response[m.dst.index()],
              src_done);
  }
}

TEST(AnalysisProperties, GatewaylessEtOnlySystem) {
  // A pure ETC system: two nodes, CAN only.  The analysis must work
  // without any TTC schedule.
  arch::Platform pf(arch::TtpBusParams{1, 0}, arch::CanBusParams::linear(10, 0));
  const auto n1 = pf.add_et_node("E1");
  const auto n2 = pf.add_et_node("E2");
  // A TT node so a TDMA round exists (unused).
  const auto nt = pf.add_tt_node("T1");

  model::Application app;
  const auto g = app.add_graph("G", 200, 200);
  const auto a = app.add_process(g, "A", n1, 10);
  const auto b = app.add_process(g, "B", n2, 10);
  const auto m = app.add_message(a, b, 8);

  SystemConfig cfg(app, arch::TdmaRound({arch::Slot{nt, 10}}, pf.ttp()));
  const auto r = multi_cluster_scheduling(app, pf, cfg, McsOptions{});
  ASSERT_TRUE(r.converged);
  // A: source, r = 10.  m: J = 10, C = 10 -> delivered by 20.
  EXPECT_EQ(r.analysis.process_response[a.index()], 10);
  EXPECT_EQ(r.analysis.message_delivery[m.index()], 20);
  // B: offset = earliest arrival 20, jitter 0 (no interference anywhere).
  EXPECT_EQ(r.analysis.process_offsets[b.index()], 20);
  EXPECT_EQ(r.analysis.graph_response[0], 30);
  EXPECT_TRUE(r.schedulable(app));
}

TEST(AnalysisProperties, EtToTtWithoutGatewaySlotDiverges) {
  // ET->TT traffic but the TDMA round has no gateway slot: the analysis
  // must flag the configuration rather than fabricate a delivery.
  auto ex = gen::make_paper_example();
  std::vector<arch::Slot> slots{arch::Slot{ex.n1, 20}};  // no S_G!
  SystemConfig cfg(ex.app, arch::TdmaRound(std::move(slots), ex.platform.ttp()));
  cfg.set_message_priority(ex.m1, 0);
  cfg.set_message_priority(ex.m2, 1);
  cfg.set_message_priority(ex.m3, 2);
  const auto r = multi_cluster_scheduling(ex.app, ex.platform, cfg, McsOptions{});
  EXPECT_FALSE(r.converged);
  EXPECT_FALSE(r.schedulable(ex.app));
}

TEST(AnalysisProperties, LocalDeadlineViolationDetected) {
  auto ex = gen::make_paper_example();
  ex.app.set_local_deadline(ex.p2, 100);  // completion is 135 in config A
  auto cfg = gen::make_figure4_config(ex, Figure4Variant::A);
  const auto r = multi_cluster_scheduling(ex.app, ex.platform, cfg, McsOptions{});
  EXPECT_FALSE(r.schedulable(ex.app));
  ex.app.set_local_deadline(ex.p2, 140);  // 80 + 55 = 135 <= 140
  auto cfg2 = gen::make_figure4_config(ex, Figure4Variant::B);
  const auto r2 = multi_cluster_scheduling(ex.app, ex.platform, cfg2, McsOptions{});
  EXPECT_TRUE(r2.schedulable(ex.app));
}

}  // namespace
}  // namespace mcs::core
