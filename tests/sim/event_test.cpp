#include "mcs/sim/event.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

namespace mcs::sim {
namespace {

/// Records the `id` of every event it is handed, in firing order.
struct Recorder {
  std::vector<std::uint32_t> ids;
  void operator()(const Event& e) { ids.push_back(e.id); }
};

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  q.schedule(30, EventKind::TtFinish, 3);
  q.schedule(10, EventKind::CanDone, 1);
  q.schedule(20, EventKind::SgPack, 2);
  Recorder fired;
  q.run(100, fired);
  EXPECT_EQ(fired.ids, (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_EQ(q.now(), 30);
}

TEST(EventQueue, SameTimeFiresInInsertionOrder) {
  EventQueue q;
  for (std::uint32_t i = 0; i < 10; ++i) {
    // Alternate the kinds: only the insertion order may break the tie.
    q.schedule(5, i % 2 ? EventKind::CanArbitrate : EventKind::TtRelease, i);
  }
  Recorder fired;
  q.run(100, fired);
  ASSERT_EQ(fired.ids.size(), 10u);
  for (std::uint32_t i = 0; i < 10; ++i) EXPECT_EQ(fired.ids[i], i);
}

TEST(EventQueue, PopReturnsTheWholeRecord) {
  EventQueue q;
  q.schedule(7, EventKind::EtFinish, 4, 2, 99);
  const Event e = q.pop();
  EXPECT_EQ(e.time, 7);
  EXPECT_EQ(e.kind, EventKind::EtFinish);
  EXPECT_EQ(e.id, 4u);
  EXPECT_EQ(e.node, 2u);
  EXPECT_EQ(e.version, 99u);
  EXPECT_EQ(q.now(), 7);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ActionsMayScheduleMoreEvents) {
  EventQueue q;
  int fired = 0;
  q.schedule(1, EventKind::TtRelease, 1);
  q.run(100, [&](const Event& e) {
    ++fired;
    if (e.id < 3) q.schedule(e.time + 1, EventKind::TtRelease, e.id + 1);
  });
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(q.now(), 3);
}

TEST(EventQueue, SchedulingInThePastThrows) {
  EventQueue q;
  q.schedule(10, EventKind::SgPack);
  (void)q.pop();
  EXPECT_THROW(q.schedule(5, EventKind::SgPack), std::invalid_argument);
  // Scheduling at the current instant is allowed.
  EXPECT_NO_THROW(q.schedule(10, EventKind::SgPack));
}

TEST(EventQueue, RunRespectsBudget) {
  EventQueue q;
  for (std::uint32_t i = 0; i < 10; ++i) q.schedule(i, EventKind::CanDone, i);
  Recorder fired;
  EXPECT_EQ(q.run(4, fired), 4);
  EXPECT_EQ(q.pending(), 6u);
  EXPECT_EQ(fired.ids, (std::vector<std::uint32_t>{0, 1, 2, 3}));
}

TEST(EventQueue, NextTime) {
  EventQueue q;
  EXPECT_EQ(q.next_time(), util::kTimeInfinity);
  q.schedule(42, EventKind::BabbleEnd);
  q.schedule(17, EventKind::BabbleEnd);
  EXPECT_EQ(q.next_time(), 17);
}

}  // namespace
}  // namespace mcs::sim
