#include "mcs/sched/list_scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "mcs/core/system_config.hpp"
#include "mcs/gen/paper_example.hpp"
#include "mcs/gen/suites.hpp"
#include "mcs/util/math.hpp"
#include "mcs/util/rng.hpp"

namespace mcs::sched {
namespace {

using gen::Figure4Variant;
using util::MessageId;
using util::NodeId;
using util::ProcessId;
using util::Time;

// ---- Reference: the ready-heap list scheduler ListProgram compiles ------
//
// A test-local copy of the heap loop: pops the ready TT process with the
// longest critical path (ties by lowest id), places it and its remote
// messages, and resolves its successors' arcs, counting message-carried and
// pure-precedence arcs separately.  ListProgram must reproduce it exactly.

using SlotLoad = std::vector<std::int64_t>;

std::int64_t& load_at(SlotLoad& load, std::int64_t occurrence) {
  const auto k = static_cast<std::size_t>(occurrence);
  if (k >= load.size()) load.resize(k + 1, 0);
  return load[k];
}

MessageSlotAssignment heap_place_message(const arch::TdmaRound& tdma, std::size_t slot,
                                         Time earliest, std::int64_t bytes,
                                         SlotLoad& load) {
  const std::int64_t capacity = tdma.slot_capacity(slot);
  const Time round_len = tdma.round_length();
  const Time offset = tdma.slot_offset(slot);
  std::int64_t k = 0;
  if (earliest > offset) k = util::ceil_div(earliest - offset, round_len);
  for (;; ++k) {
    const std::int64_t free0 = capacity - load_at(load, k);
    if (free0 <= 0) continue;
    if (bytes <= free0) {
      load_at(load, k) += bytes;
      return {slot, k, 1, k * round_len + offset,
              k * round_len + offset + tdma.slot(slot).length};
    }
    if (load_at(load, k) == 0) {
      const std::int64_t rounds = util::ceil_div(bytes, capacity);
      bool all_free = true;
      for (std::int64_t r = 1; r < rounds; ++r) {
        if (load_at(load, k + r) != 0) {
          all_free = false;
          break;
        }
      }
      if (!all_free) continue;
      for (std::int64_t r = 0; r < rounds; ++r) {
        load_at(load, k + r) += std::min<std::int64_t>(capacity, bytes - r * capacity);
      }
      return {slot, k, rounds, k * round_len + offset,
              (k + rounds - 1) * round_len + offset + tdma.slot(slot).length};
    }
  }
}

TtcSchedule heap_list_schedule(const model::Application& app,
                               const arch::Platform& platform,
                               const arch::TdmaRound& tdma,
                               const ScheduleConstraints& constraints,
                               const std::vector<Time>& cp) {
  TtcSchedule out;
  out.process_start.assign(app.num_processes(), 0);
  out.message_slot.assign(app.num_messages(), std::nullopt);
  std::vector<std::size_t> unresolved(app.num_processes(), 0);
  std::vector<bool> is_tt(app.num_processes(), false);
  std::vector<Time> release(app.num_processes(), 0);
  for (std::size_t pi = 0; pi < app.num_processes(); ++pi) {
    const ProcessId p(static_cast<ProcessId::underlying_type>(pi));
    const model::Process& proc = app.process(p);
    if (!platform.is_tt(proc.node)) continue;
    is_tt[pi] = true;
    release[pi] = constraints.process_lb(p);
    for (const ProcessId pred : proc.predecessors) {
      if (platform.is_tt(app.process(pred).node)) ++unresolved[pi];
    }
  }
  const auto after = [&cp](ProcessId a, ProcessId b) {
    if (cp[a.index()] != cp[b.index()]) return cp[a.index()] < cp[b.index()];
    return b < a;
  };
  std::vector<ProcessId> ready;
  const auto make_ready = [&](ProcessId p) {
    ready.push_back(p);
    std::push_heap(ready.begin(), ready.end(), after);
  };
  for (std::size_t pi = 0; pi < app.num_processes(); ++pi) {
    if (is_tt[pi] && unresolved[pi] == 0) {
      make_ready(ProcessId(static_cast<ProcessId::underlying_type>(pi)));
    }
  }
  std::vector<Time> node_free(platform.num_nodes(), 0);
  std::vector<SlotLoad> frame_load(tdma.num_slots());
  std::size_t scheduled = 0;
  const auto resolve = [&](ProcessId succ) {
    if (is_tt[succ.index()] && --unresolved[succ.index()] == 0) make_ready(succ);
  };
  while (!ready.empty()) {
    std::pop_heap(ready.begin(), ready.end(), after);
    const ProcessId p = ready.back();
    ready.pop_back();
    const model::Process& proc = app.process(p);
    Time& free_at = node_free[proc.node.index()];
    const Time start = std::max(release[p.index()], free_at);
    const Time finish = start + proc.wcet;
    out.process_start[p.index()] = start;
    free_at = finish;
    out.makespan = std::max(out.makespan, finish);
    ++scheduled;
    for (const ProcessId succ : proc.successors) {
      release[succ.index()] = std::max(release[succ.index()], finish);
    }
    for (const MessageId mid : proc.out_messages) {
      const model::Message& msg = app.message(mid);
      const NodeId dst_node = app.process(msg.dst).node;
      if (dst_node == proc.node) {
        release[msg.dst.index()] = std::max(release[msg.dst.index()], finish);
      } else {
        if (!tdma.owns_slot(proc.node)) {
          out.feasible = false;
          out.problems.push_back("node '" + platform.node(proc.node).name +
                                 "' sends message '" + msg.name +
                                 "' but owns no TDMA slot");
          continue;
        }
        const std::size_t slot = tdma.slot_of(proc.node);
        const auto a = heap_place_message(
            tdma, slot, std::max(finish, constraints.message_lb(mid)), msg.size_bytes,
            frame_load[slot]);
        out.message_slot[mid.index()] = a;
        out.makespan = std::max(out.makespan, a.delivery);
        if (platform.is_tt(dst_node)) {
          release[msg.dst.index()] = std::max(release[msg.dst.index()], a.delivery);
        }
      }
      resolve(msg.dst);
    }
    const auto& succs = proc.successors;
    for (auto it = succs.begin(); it != succs.end(); ++it) {
      const auto earlier = std::count(succs.begin(), it, *it);
      const auto messages =
          std::count_if(proc.out_messages.begin(), proc.out_messages.end(),
                        [&](MessageId m) { return app.message(m).dst == *it; });
      if (earlier < messages) continue;
      resolve(*it);
    }
  }
  std::size_t tt_count = 0;
  for (const bool tt : is_tt) tt_count += tt ? 1 : 0;
  if (scheduled != tt_count) {
    out.feasible = false;
    out.problems.push_back("list_schedule: not all TT processes could be scheduled "
                           "(dependency cycle?)");
  }
  return out;
}

/// Field-by-field comparison of two schedules.
void expect_same(const TtcSchedule& got, const TtcSchedule& want, const std::string& what) {
  EXPECT_EQ(got.process_start, want.process_start) << what;
  EXPECT_EQ(got.makespan, want.makespan) << what;
  EXPECT_EQ(got.feasible, want.feasible) << what;
  EXPECT_EQ(got.problems, want.problems) << what;
  ASSERT_EQ(got.message_slot.size(), want.message_slot.size()) << what;
  for (std::size_t mi = 0; mi < got.message_slot.size(); ++mi) {
    const auto& a = got.message_slot[mi];
    const auto& b = want.message_slot[mi];
    ASSERT_EQ(a.has_value(), b.has_value()) << what << " m" << mi;
    if (!a) continue;
    EXPECT_EQ(a->slot_index, b->slot_index) << what << " m" << mi;
    EXPECT_EQ(a->first_round, b->first_round) << what << " m" << mi;
    EXPECT_EQ(a->rounds, b->rounds) << what << " m" << mi;
    EXPECT_EQ(a->tx_start, b->tx_start) << what << " m" << mi;
    EXPECT_EQ(a->delivery, b->delivery) << what << " m" << mi;
  }
}

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

// ---- ListProgram against the heap scheduler ------------------------------

/// Rounds one program must schedule under: the default round, the default
/// round without the slot of the first TT node that sends a remote message
/// (a sender without a slot; when such a node exists), one with every slot
/// at its one-byte minimum (multi-frame messages) and one with random
/// lengths in between.
std::vector<arch::TdmaRound> test_rounds(const model::Application& app,
                                         const arch::Platform& platform, util::Rng& rng) {
  const arch::TdmaRound base = core::default_tdma_round(app, platform);
  std::vector<arch::TdmaRound> rounds{base};
  std::vector<arch::Slot> tight, mixed, missing;
  std::optional<NodeId> sender;
  for (const model::Message& m : app.messages()) {
    const NodeId src = app.process(m.src).node;
    if (platform.is_tt(src) && src != app.process(m.dst).node) {
      sender = src;
      break;
    }
  }
  for (std::size_t i = 0; i < base.num_slots(); ++i) {
    const arch::Slot& slot = base.slot(i);
    tight.push_back({slot.owner, platform.ttp().length_for_bytes(1)});
    mixed.push_back({slot.owner, platform.ttp().length_for_bytes(rng.uniform_int(1, 40))});
    if (slot.owner != sender) missing.push_back(slot);
  }
  if (sender && !missing.empty()) rounds.emplace_back(missing, platform.ttp());
  rounds.emplace_back(tight, platform.ttp());
  rounds.emplace_back(mixed, platform.ttp());
  return rounds;
}

/// Unconstrained, then random process-release and message_tx pins.
std::vector<ScheduleConstraints> test_constraints(const model::Application& app,
                                                  util::Rng& rng) {
  std::vector<ScheduleConstraints> all{ScheduleConstraints::none(app), {}};
  ScheduleConstraints pinned = ScheduleConstraints::none(app);
  for (Time& t : pinned.process_release) {
    if (rng.uniform_int(0, 3) == 0) t = rng.uniform_int(0, 400);
  }
  for (Time& t : pinned.message_tx) {
    if (rng.uniform_int(0, 2) == 0) t = rng.uniform_int(0, 600);
  }
  all.push_back(std::move(pinned));
  return all;
}

/// What the comparison runs exercised.
struct Coverage {
  std::size_t runs = 0;
  std::size_t infeasible = 0;   ///< runs with a sender without a slot
  std::size_t multi_frame = 0;  ///< messages spanning several frames
};

/// Runs one program over every test round and constraint set, interleaved
/// so each run starts from the scratch a different one left.
void compare_program(const model::Application& app, const arch::Platform& platform,
                     std::uint64_t seed, const std::string& what, Coverage& cov) {
  util::Rng rng(seed);
  const std::vector<Time> cp = critical_path_priorities(app);
  ListProgram program(app, platform, cp);
  TtcSchedule out;
  for (const arch::TdmaRound& round : test_rounds(app, platform, rng)) {
    for (const ScheduleConstraints& c : test_constraints(app, rng)) {
      program.run(round, c, out);
      expect_same(out, heap_list_schedule(app, platform, round, c, cp),
                  what + " round " + round.to_string());
      ++cov.runs;
      cov.infeasible += out.feasible ? 0 : 1;
      for (const auto& slot : out.message_slot) {
        cov.multi_frame += slot && slot->rounds > 1 ? 1 : 0;
      }
    }
  }
}

TEST(ListProgram, MatchesHeapSchedulerOnEveryGeneratedSuite) {
  std::size_t systems = 0;
  std::size_t default_infeasible = 0;
  Coverage cov;
  for (const char* suite : {"tiny", "validation", "fig9ab", "fig9c"}) {
    const auto points = gen::suite_by_name(suite, 2, 4242);
    for (std::size_t i = 0; i < points.size(); ++i) {
      const auto sys = gen::generate(points[i].params);
      compare_program(sys.app, sys.platform, 17 + i,
                      std::string(suite) + " #" + std::to_string(i), cov);
      ListProgram program(sys.app, sys.platform, critical_path_priorities(sys.app));
      TtcSchedule out;
      program.run(core::default_tdma_round(sys.app, sys.platform),
                  ScheduleConstraints::none(sys.app), out);
      default_infeasible += out.feasible ? 0 : 1;
      ++systems;
    }
  }
  EXPECT_EQ(systems, 4u * 2u + 5u * 2u + 5u * 2u);
  // The default round grants every TT sender a slot; the round without one
  // sender's slot, and one-byte slots, were exercised.
  EXPECT_EQ(default_infeasible, 0u);
  EXPECT_GT(cov.infeasible, 0u);
  EXPECT_GT(cov.multi_frame, 0u);
  EXPECT_GE(cov.runs, systems * 9);
}

TEST(ListProgram, SenderWithoutSlotBlocksItsReceiversAndTheirSuccessors) {
  arch::Platform pf(arch::TtpBusParams{1, 0}, arch::CanBusParams::linear(10, 0));
  const auto n1 = pf.add_tt_node("N1");
  const auto n2 = pf.add_tt_node("N2");
  model::Application app;
  const auto g = app.add_graph("G", 400, 400);
  const auto a = app.add_process(g, "A", n1, 5);
  const auto b = app.add_process(g, "B", n2, 5);
  const auto c = app.add_process(g, "C", n2, 7);  // downstream of B
  const auto d = app.add_process(g, "D", n1, 9);  // independent, after A on N1
  const auto e = app.add_process(g, "E", n2, 3);  // independent on N2
  (void)app.add_message(a, b, 4, "ab");
  app.add_dependency(b, c);
  app.add_dependency(a, d);
  (void)e;
  const arch::TdmaRound round({arch::Slot{n2, 10}}, pf.ttp());
  const std::vector<Time> cp = critical_path_priorities(app);
  TtcSchedule out;
  ListProgram program(app, pf, cp);
  program.run(round, ScheduleConstraints::none(app), out);
  expect_same(out, heap_list_schedule(app, pf, round, ScheduleConstraints::none(app), cp),
              "no slot");
  EXPECT_FALSE(out.feasible);
  ASSERT_EQ(out.problems.size(), 2u);
  EXPECT_EQ(out.problems[0], "node 'N1' sends message 'ab' but owns no TDMA slot");
  EXPECT_EQ(out.process_start[d.index()], 5);  // A and D still run
  EXPECT_EQ(out.process_start[b.index()], 0);  // never placed
  EXPECT_EQ(out.process_start[c.index()], 0);
  EXPECT_FALSE(out.message_slot[0].has_value());

  // The same program, next under a round with both slots: nothing blocked
  // is left over from the previous run.
  const arch::TdmaRound both({arch::Slot{n1, 10}, arch::Slot{n2, 10}}, pf.ttp());
  program.run(both, ScheduleConstraints::none(app), out);
  expect_same(out, heap_list_schedule(app, pf, both, ScheduleConstraints::none(app), cp),
              "both slots");
  EXPECT_TRUE(out.feasible);
  EXPECT_EQ(out.process_start[b.index()], out.message_slot[0]->delivery);
}

TEST(ListProgram, MessagePlusExplicitDependencyToOneSuccessor) {
  arch::Platform pf(arch::TtpBusParams{1, 0}, arch::CanBusParams::linear(10, 0));
  const auto n1 = pf.add_tt_node("N1");
  const auto n2 = pf.add_tt_node("N2");
  model::Application app;
  const auto g = app.add_graph("G", 400, 400);
  const auto a = app.add_process(g, "A", n1, 5);
  const auto b = app.add_process(g, "B", n2, 5);
  const auto c = app.add_process(g, "C", n1, 5);
  (void)app.add_message(a, b, 12);  // remote message plus a parallel arc
  app.add_dependency(a, b);
  (void)app.add_message(a, c, 4);   // local message plus a parallel arc
  app.add_dependency(a, c);
  app.add_dependency(c, b);
  const std::vector<Time> cp = critical_path_priorities(app);
  for (const Time len : {Time{10}, Time{4}}) {  // one frame, then three
    const arch::TdmaRound round({arch::Slot{n1, len}, arch::Slot{n2, 10}}, pf.ttp());
    TtcSchedule out;
    ListProgram(app, pf, cp).run(round, ScheduleConstraints::none(app), out);
    expect_same(out, heap_list_schedule(app, pf, round, ScheduleConstraints::none(app), cp),
                "parallel arcs, slot length " + std::to_string(len));
    ASSERT_TRUE(out.feasible);
    EXPECT_EQ(out.process_start[c.index()], 5);
    EXPECT_EQ(out.process_start[b.index()], out.message_slot[0]->delivery);
  }
}

TEST(ListProgram, MultiFrameMessagesAndTxPinsMatchTheHeapScheduler) {
  const auto ex = gen::make_paper_example();
  const auto cfg = gen::make_figure4_config(ex, Figure4Variant::A);
  const std::vector<Time> cp = critical_path_priorities(ex.app);
  ListProgram program(ex.app, ex.platform, cp);
  TtcSchedule out;
  for (const Time pin : {Time{0}, Time{61}, Time{130}, Time{500}}) {
    auto c = ScheduleConstraints::none(ex.app);
    c.message_tx[ex.m2.index()] = pin;
    program.run(cfg.tdma(), c, out);
    expect_same(out, heap_list_schedule(ex.app, ex.platform, cfg.tdma(), c, cp),
                "m2 pinned at " + std::to_string(pin));
  }
  // Slots of one byte: m1 and m2 (8 bytes each) span eight frames.
  std::vector<arch::Slot> tight;
  for (std::size_t i = 0; i < cfg.tdma().num_slots(); ++i) {
    tight.push_back({cfg.tdma().slot(i).owner, ex.platform.ttp().length_for_bytes(1)});
  }
  const arch::TdmaRound round(tight, ex.platform.ttp());
  auto c = ScheduleConstraints::none(ex.app);
  c.message_tx[ex.m1.index()] = 40;
  program.run(round, c, out);
  expect_same(out, heap_list_schedule(ex.app, ex.platform, round, c, cp), "one-byte slots");
  ASSERT_TRUE(out.message_slot[ex.m1.index()].has_value());
  EXPECT_EQ(out.message_slot[ex.m1.index()]->rounds, 8);
}

}  // namespace
}  // namespace mcs::sched
