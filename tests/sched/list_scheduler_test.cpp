#include "mcs/sched/list_scheduler.hpp"

#include <gtest/gtest.h>

#include "mcs/gen/paper_example.hpp"

namespace mcs::sched {
namespace {

using gen::Figure4Variant;
using util::Time;

TEST(ListScheduler, PaperExampleConfigA) {
  const auto ex = gen::make_paper_example();
  const auto cfg = gen::make_figure4_config(ex, Figure4Variant::A);
  const auto s = list_schedule(ex.app, ex.platform, cfg.tdma(),
                               ScheduleConstraints::none(ex.app),
                               critical_path_priorities(ex.app));

  ASSERT_TRUE(s.feasible) << (s.problems.empty() ? "" : s.problems.front());
  EXPECT_EQ(s.process_start[ex.p1.index()], 0);

  // m1 and m2 pack into the same S1 frame of round 2 ([60, 80)).
  const auto& a1 = s.message_slot[ex.m1.index()];
  const auto& a2 = s.message_slot[ex.m2.index()];
  ASSERT_TRUE(a1.has_value());
  ASSERT_TRUE(a2.has_value());
  EXPECT_EQ(a1->tx_start, 60);
  EXPECT_EQ(a1->delivery, 80);
  EXPECT_EQ(a2->tx_start, 60);
  EXPECT_EQ(a2->delivery, 80);
  EXPECT_EQ(a1->rounds, 1);

  // m3 is ET-sourced: not scheduled on the TTP by the list scheduler.
  EXPECT_FALSE(s.message_slot[ex.m3.index()].has_value());

  // Without ETC feedback, P4 is placed right after P1 on N1.
  EXPECT_EQ(s.process_start[ex.p4.index()], 30);
}

TEST(ListScheduler, ReleaseConstraintDelaysProcess) {
  const auto ex = gen::make_paper_example();
  const auto cfg = gen::make_figure4_config(ex, Figure4Variant::A);
  auto constraints = ScheduleConstraints::none(ex.app);
  constraints.process_release[ex.p4.index()] = 180;  // worst-case m3 arrival
  const auto s = list_schedule(ex.app, ex.platform, cfg.tdma(), constraints,
                               critical_path_priorities(ex.app));
  EXPECT_EQ(s.process_start[ex.p4.index()], 180);
  EXPECT_EQ(s.makespan, 210);
}

TEST(ListScheduler, MessageTxConstraintMovesSlot) {
  const auto ex = gen::make_paper_example();
  const auto cfg = gen::make_figure4_config(ex, Figure4Variant::A);
  auto constraints = ScheduleConstraints::none(ex.app);
  // Pin m2 into round 4 (paper §4 discussion): tx no earlier than 130.
  constraints.message_tx[ex.m2.index()] = 130;
  const auto s = list_schedule(ex.app, ex.platform, cfg.tdma(), constraints,
                               critical_path_priorities(ex.app));
  EXPECT_EQ(s.message_slot[ex.m2.index()]->tx_start, 140);  // S1 of round 4
  EXPECT_EQ(s.message_slot[ex.m2.index()]->delivery, 160);
  // m1 is unaffected.
  EXPECT_EQ(s.message_slot[ex.m1.index()]->delivery, 80);
}

TEST(ListScheduler, SequentialExecutionOnOneNode) {
  arch::Platform pf(arch::TtpBusParams{1, 0}, arch::CanBusParams::linear(10, 0));
  const auto n1 = pf.add_tt_node("N1");
  model::Application app;
  const auto g = app.add_graph("G", 100, 100);
  const auto a = app.add_process(g, "A", n1, 10);
  const auto b = app.add_process(g, "B", n1, 10);
  const auto c = app.add_process(g, "C", n1, 10);
  (void)a;
  (void)b;
  (void)c;
  const arch::TdmaRound round({arch::Slot{n1, 10}}, pf.ttp());
  const auto s = list_schedule(app, pf, round, ScheduleConstraints::none(app),
                               critical_path_priorities(app));

  // Three independent processes on one node: serialized, total 30.
  std::vector<Time> starts{s.process_start[0], s.process_start[1],
                           s.process_start[2]};
  std::sort(starts.begin(), starts.end());
  EXPECT_EQ(starts, (std::vector<Time>{0, 10, 20}));
  EXPECT_EQ(s.makespan, 30);
}

TEST(ListScheduler, CriticalPathPriorityOrdersReadySet) {
  arch::Platform pf(arch::TtpBusParams{1, 0}, arch::CanBusParams::linear(10, 0));
  const auto n1 = pf.add_tt_node("N1");
  model::Application app;
  const auto g = app.add_graph("G", 200, 200);
  // "long" heads a chain of 3; "short" is independent.  List scheduling by
  // critical path runs "long" first.
  const auto long_head = app.add_process(g, "LH", n1, 10);
  const auto long_mid = app.add_process(g, "LM", n1, 50);
  const auto long_tail = app.add_process(g, "LT", n1, 50);
  const auto short_p = app.add_process(g, "S", n1, 10);
  app.add_dependency(long_head, long_mid);
  app.add_dependency(long_mid, long_tail);
  const arch::TdmaRound round({arch::Slot{n1, 10}}, pf.ttp());
  const auto s = list_schedule(app, pf, round, ScheduleConstraints::none(app),
                               critical_path_priorities(app));
  // The critical chain monopolizes the node; the short independent process
  // is deferred behind it (classic list-scheduling priority order).
  EXPECT_EQ(s.process_start[long_head.index()], 0);
  EXPECT_EQ(s.process_start[long_mid.index()], 10);
  EXPECT_EQ(s.process_start[long_tail.index()], 60);
  EXPECT_EQ(s.process_start[short_p.index()], 110);
}

TEST(ListScheduler, MultiFrameMessageSpansRounds) {
  arch::Platform pf(arch::TtpBusParams{1, 0}, arch::CanBusParams::linear(10, 0));
  const auto n1 = pf.add_tt_node("N1");
  const auto n2 = pf.add_tt_node("N2");
  model::Application app;
  const auto g = app.add_graph("G", 400, 400);
  const auto a = app.add_process(g, "A", n1, 5);
  const auto b = app.add_process(g, "B", n2, 5);
  (void)app.add_message(a, b, 25);  // slot capacity is 10 -> 3 rounds
  const arch::TdmaRound round({arch::Slot{n1, 10}, arch::Slot{n2, 10}}, pf.ttp());
  const auto s = list_schedule(app, pf, round, ScheduleConstraints::none(app),
                               critical_path_priorities(app));

  const auto& m = s.message_slot[0];
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->rounds, 3);
  EXPECT_EQ(m->tx_start, 20);            // N1 slot of round 2 (after A ends at 5)
  EXPECT_EQ(m->delivery, 20 + 2 * 20 + 10);  // end of third occurrence
  EXPECT_EQ(s.process_start[b.index()], m->delivery);
}

TEST(ListScheduler, NodeWithoutSlotIsInfeasible) {
  arch::Platform pf(arch::TtpBusParams{1, 0}, arch::CanBusParams::linear(10, 0));
  const auto n1 = pf.add_tt_node("N1");
  const auto n2 = pf.add_tt_node("N2");
  model::Application app;
  const auto g = app.add_graph("G", 100, 100);
  const auto a = app.add_process(g, "A", n1, 5);
  const auto b = app.add_process(g, "B", n2, 5);
  (void)app.add_message(a, b, 4);
  // Round grants a slot only to N2.
  const arch::TdmaRound round({arch::Slot{n2, 10}}, pf.ttp());
  const auto s = list_schedule(app, pf, round, ScheduleConstraints::none(app),
                               critical_path_priorities(app));
  EXPECT_FALSE(s.feasible);
  ASSERT_FALSE(s.problems.empty());
  EXPECT_NE(s.problems.front().find("owns no TDMA slot"), std::string::npos);
}

TEST(RecommendedSlotLengths, CoversSingleAndPackedSizes) {
  const auto ex = gen::make_paper_example();
  const auto lengths = recommended_slot_lengths(ex.app, ex.platform, ex.n1);
  // N1 sends m1 (8B) and m2 (8B): candidates include 8 and 16 bytes.
  EXPECT_NE(std::find(lengths.begin(), lengths.end(), 8), lengths.end());
  EXPECT_NE(std::find(lengths.begin(), lengths.end(), 16), lengths.end());
  // Gateway slot carries m3 (8B).
  const auto sg = recommended_slot_lengths(ex.app, ex.platform, ex.ng);
  EXPECT_NE(std::find(sg.begin(), sg.end(), 8), sg.end());
  // A node that sends nothing gets the minimal slot.
  const auto silent = recommended_slot_lengths(ex.app, ex.platform, ex.n2);
  EXPECT_EQ(silent.size(), 1u);
}

}  // namespace
}  // namespace mcs::sched
