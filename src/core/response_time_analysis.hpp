// Offset/jitter-aware response time analysis for the ETC side of a
// multi-cluster system (paper §4.1, extending Tindell [14,15] and
// Palencia/González Harbour [10]).
//
// Given the application, the platform, and a system configuration whose
// TTC part (process offsets and TTP message slot assignments) is fixed,
// this module computes worst-case response times for every ETC process
// and every CAN-borne message, worst-case queuing delays for the three
// queue kinds (OutNi, OutCAN, OutTTP), worst-case deliveries of
// inter-cluster messages, graph response times, and worst-case buffer
// bounds.
//
// Activity bookkeeping (see DESIGN.md §3 for the derivation from the
// paper's Figure 4 worked example):
//   O  accounting offset   — TT process: schedule start; ET process:
//      max of its inputs' earliest-presence points; TT->ET message: TTP
//      delivery instant; ET-sourced message: the sender's offset.
//   J  release jitter      — latest-release minus O; for a message the
//      sender's response time (TT->ET leg: r_T of the gateway transfer
//      process); for a receiving process max(delivery) - O.
//   w  queuing/interference delay from the recurrences of §4.1.
//   r  response time       — J + w + C, measured from O.
//   E  earliest release    — used only by the offset-window pruning.
#pragma once

#include <vector>

#include "mcs/core/analysis_types.hpp"
#include "mcs/core/analysis_workspace.hpp"
#include "mcs/model/process_graph.hpp"
#include "mcs/sched/list_scheduler.hpp"

namespace mcs::core {

/// Immutable inputs of one analysis run.
struct AnalysisInput {
  const model::Application* app = nullptr;
  const arch::Platform* platform = nullptr;
  const SystemConfig* config = nullptr;        ///< phi (TTC part), beta, pi
  const sched::TtcSchedule* ttc_schedule = nullptr;  ///< slot assignments
  AnalysisOptions options;
};

/// Runs the analysis to its fixed point (or the divergence cap) and
/// returns every worst-case quantity.  Deterministic and side-effect free.
[[nodiscard]] AnalysisResult response_time_analysis(const AnalysisInput& input);

/// Convenience overload that also reuses a prebuilt reachability index
/// (the optimizers call the analysis thousands of times on one model).
[[nodiscard]] AnalysisResult response_time_analysis(
    const AnalysisInput& input, const model::ReachabilityIndex& reachability);

/// Hot-path overload: reuses every application/platform-invariant
/// precomputation and the fixed-point State buffers owned by `workspace`
/// (built once per search; see DESIGN.md §1).  Produces bit-identical
/// results to the convenience overloads.  Throws std::invalid_argument if
/// the workspace was built for different objects.
[[nodiscard]] AnalysisResult response_time_analysis(const AnalysisInput& input,
                                                    AnalysisWorkspace& workspace);

/// Incremental re-analysis plan (DESIGN.md §2).  `base` is a trajectory
/// recorded by a previous run under the same analysis options; its TTC
/// schedule, TDMA round and priorities may differ.  Pass 1 always runs.
/// Passes 2 and 3 compare their state inputs against the base snapshot at
/// the same pass; the inputs they cannot see in the state (priorities,
/// the gateway drain calendar) are flagged below by the caller, normally
/// multi_cluster_scheduling.  The run replays each stored pass,
/// recomputing only components whose exact pre-pass inputs differ from
/// the base, so the result is bit-identical to a cold run for any base
/// whose flags are right (a distant base costs time, never correctness).
struct RtaDelta {
  const AnalysisWorkspace::RtaTrajectory* base = nullptr;
  /// Per-ProcessId flags: priority differs from the base run's.
  const std::vector<std::uint8_t>* proc_prio_changed = nullptr;
  /// Per-ProcessId priorities OF THE BASE RUN.  A priority-changed process
  /// stops/starts interfering with everything between its old and its new
  /// priority, so the pass-2 recompute band must extend up to the HIGHER
  /// (numerically smaller) of the two.
  const std::vector<Priority>* base_process_priorities = nullptr;
  /// Any CAN-borne message priority differs from the base run's.
  bool msg_prio_dirty = false;
  /// The OutTTP drain calendar differs from the base run's: whether the
  /// gateway owns a slot, that slot's offset and length, or the round
  /// length.  Forces pass 4 to recompute.
  bool ttp_calendar_dirty = false;
};

/// Full-control overload: optional incremental plan, optional trajectory
/// capture (for use as the next run's base).  Both convenience overloads
/// forward here with {nullptr, nullptr}.
[[nodiscard]] AnalysisResult response_time_analysis(
    const AnalysisInput& input, AnalysisWorkspace& workspace,
    const RtaDelta* delta, AnalysisWorkspace::RtaTrajectory* capture);

}  // namespace mcs::core
