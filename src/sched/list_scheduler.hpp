// Static cyclic scheduling of the time-triggered cluster (paper §4,
// StaticScheduling step; list-scheduling approach of reference [5]).
//
// Produces the TTC schedule tables (process start times) and the MEDL
// content (which TDMA slot occurrence carries each TTP message).  TT
// processes execute non-preemptively and sequentially on their node; a
// node's outgoing messages are packed into the earliest occurrence of its
// TDMA slot that starts after the sender finished and still has capacity.
//
// The scheduler takes lower-bound constraints per process and per message:
//  * the MultiClusterScheduling fixed point feeds worst-case ETC->TTC
//    message deliveries as process release lower bounds ("a process is not
//    activated before the worst-case arrival time of the message");
//  * the OptimizeResources move set pins processes/messages later inside
//    their [ASAP, ALAP] windows through the same mechanism.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "mcs/arch/platform.hpp"
#include "mcs/arch/ttp.hpp"
#include "mcs/model/application.hpp"

namespace mcs::sched {

using model::Application;
using util::MessageId;
using util::NodeId;
using util::ProcessId;
using util::Time;

/// Additional release lower bounds merged (by max) into the schedule.
struct ScheduleConstraints {
  std::vector<Time> process_release;  ///< per ProcessId; empty = all zero
  std::vector<Time> message_tx;       ///< per MessageId; empty = all zero

  [[nodiscard]] static ScheduleConstraints none(const Application& app);
  [[nodiscard]] Time process_lb(ProcessId p) const;
  [[nodiscard]] Time message_lb(MessageId m) const;
};

/// Placement of one TTP-borne message in the TDMA calendar.
struct MessageSlotAssignment {
  std::size_t slot_index = 0;   ///< slot in the round (the sender's slot)
  std::int64_t first_round = 0; ///< occurrence index of the first carrying round
  std::int64_t rounds = 1;      ///< occurrences used (ceil(size / capacity))
  Time tx_start = 0;            ///< start of the first carrying occurrence
  Time delivery = 0;            ///< end of the last carrying occurrence
};

struct TtcSchedule {
  /// Start time per process (meaningful for TT processes only; the offsets
  /// phi of the schedule tables).
  std::vector<Time> process_start;
  /// Assignment per message (set for TT-sourced remote messages only).
  std::vector<std::optional<MessageSlotAssignment>> message_slot;
  Time makespan = 0;
  bool feasible = true;
  std::vector<std::string> problems;
};

/// Critical-path priorities: per ProcessId, the WCET-weighted longest path
/// from the process to a sink of its graph.  A function of the application
/// alone, so callers that schedule one application many times compute it
/// once (AnalysisWorkspace holds it).  Throws std::invalid_argument for
/// cyclic graphs.
[[nodiscard]] std::vector<Time> critical_path_priorities(const Application& app);

/// List scheduling compiled for one application and platform.  The
/// ready-list order (longest critical path first, ties by lowest
/// ProcessId; a TT process is ready once every TT predecessor is placed)
/// depends only on graph structure, the priorities and which nodes are
/// TT, never on times, constraints or slot lengths, so the constructor
/// fixes it once and run() is one linear sweep over reused scratch.
/// A sender whose node owns no slot in `tdma` leaves the receivers of its
/// remote messages, and everything downstream of them, unscheduled.
/// Keeps references to `app` and `platform`; single-threaded.
class ListProgram {
public:
  ListProgram() = default;
  ListProgram(const Application& app, const arch::Platform& platform,
              const std::vector<Time>& critical_path);

  /// Schedules the TT processes under `tdma` and `constraints` into
  /// `out`, reusing its buffers.
  void run(const arch::TdmaRound& tdma, const ScheduleConstraints& constraints,
           TtcSchedule& out);

private:
  struct Step {
    std::uint32_t pid;
    std::uint32_t node;
    Time wcet;
    std::uint32_t succ_begin, succ_end;  ///< TT successors, deduplicated
    std::uint32_t out_begin, out_end;    ///< remote out-messages
  };
  struct Out {
    std::uint32_t message;
    std::uint32_t dst;
    bool dst_tt;
    std::int64_t bytes;
  };

  const Application* app_ = nullptr;
  const arch::Platform* platform_ = nullptr;
  std::vector<Step> steps_;  ///< TT processes in ready-list order
  std::vector<std::uint32_t> succs_;
  std::vector<Out> outs_;
  std::size_t tt_count_ = 0;

  // Per-run scratch.
  std::vector<Time> release_, node_free_;
  std::vector<std::uint8_t> blocked_;
  std::vector<std::size_t> slot_of_node_;
  std::vector<std::vector<std::int64_t>> frame_load_;  ///< bytes per slot occurrence
};

/// List scheduling ordered by `critical_path` =
/// critical_path_priorities(app): builds a ListProgram and runs it once.
[[nodiscard]] TtcSchedule list_schedule(const Application& app,
                                        const arch::Platform& platform,
                                        const arch::TdmaRound& tdma,
                                        const ScheduleConstraints& constraints,
                                        const std::vector<Time>& critical_path);

/// Recommended slot lengths for the slot owned by `node` (paper §5.1 /
/// reference [5]): the distinct "useful" lengths to try during the bus
/// access optimization — one per subset-sum of outgoing message sizes up
/// to the total, deduplicated and clamped to at most `max_candidates`.
[[nodiscard]] std::vector<Time> recommended_slot_lengths(const Application& app,
                                                         const arch::Platform& platform,
                                                         NodeId node,
                                                         std::size_t max_candidates = 8);

}  // namespace mcs::sched
