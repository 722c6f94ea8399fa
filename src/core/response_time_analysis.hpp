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

/// Hot-path overload: reuses every application/platform-invariant
/// precomputation and the fixed-point State buffers owned by `workspace`
/// (built once per search; see DESIGN.md §1).  Produces bit-identical
/// results to the convenience overload.  Throws std::invalid_argument if
/// the workspace was built for different objects.
[[nodiscard]] AnalysisResult response_time_analysis(const AnalysisInput& input,
                                                    AnalysisWorkspace& workspace);

/// What the pass loop reports besides the State it leaves in the
/// workspace.
struct PassLoopResult {
  bool converged = false;
  int outer_iterations = 0;
  int diverged_activities = 0;
};

/// Record-rule overload (DESIGN.md §2 "Component records"): runs only the
/// pass loop and leaves its state in `workspace.state()` (export it with
/// export_analysis).  The run reads and writes the component records of
/// MCS iteration `iteration` and replays the ones an earlier run left
/// there only when `replay` is set.  Every record validates itself, so
/// the state is bit-identical to a cold run's either way.  The workspace
/// overload runs this with {0, false} and exports.
[[nodiscard]] PassLoopResult response_time_analysis(const AnalysisInput& input,
                                                    AnalysisWorkspace& workspace,
                                                    std::size_t iteration,
                                                    bool replay);

/// Builds the full result (buffer bounds, graph responses, the per-activity
/// vectors) from the state the last pass loop on `input` left in
/// `workspace`.  MultiClusterScheduling calls it once per run, after its
/// final iteration.
[[nodiscard]] AnalysisResult export_analysis(const AnalysisInput& input,
                                             AnalysisWorkspace& workspace,
                                             const PassLoopResult& loop);

}  // namespace mcs::core
