// HOPA-style priority assignment (paper §5.1, following Gutiérrez García &
// González Harbour, "Optimized Priority Assignment for Tasks and Messages
// in Distributed Hard Real-Time Systems" — reference [7]).
//
// HOPA distributes each process graph's end-to-end deadline over the
// activities along its paths as artificial local deadlines, assigns
// deadline-monotonic priorities per resource, analyzes the system, and
// iteratively redistributes the deadlines using the observed worst-case
// completions — activities consuming a larger share of the end-to-end
// response receive a larger share of the deadline budget.  The best
// priority assignment seen (by degree of schedulability) is returned.
//
// Reference [7] leaves several engineering constants open; DESIGN.md
// documents the concrete redistribution rule used here.
#pragma once

#include "mcs/core/moves.hpp"

namespace mcs::core {

struct HopaOptions {
  int max_iterations = 6;        ///< analysis/redistribution rounds
};

struct HopaResult {
  std::vector<Priority> process_priorities;
  std::vector<Priority> message_priorities;
  Schedulability delta;          ///< of the best assignment found
  McsResult mcs;                 ///< analysis of the best assignment
  int best_iteration = 0;        ///< 1-based round that produced it
  int runs = 0;                  ///< MultiClusterScheduling runs performed
};

/// Computes priorities for the ETC processes and CAN messages under the
/// given TDMA round, analyzing under default McsOptions on `workspace`.
/// TT activities keep their (unused) default priority.
[[nodiscard]] HopaResult hopa_priorities(const model::Application& app,
                                         const arch::Platform& platform,
                                         const arch::TdmaRound& tdma,
                                         AnalysisWorkspace& workspace,
                                         const HopaOptions& options = {});

/// Hot-path overload for the optimizers: analyzes under the search's own
/// `ctx.mcs_options()` on `ctx.workspace()`, so the returned `mcs` is the
/// analysis `ctx.evaluate` would compute for the winning priorities.
[[nodiscard]] HopaResult hopa_priorities(const MoveContext& ctx,
                                         const arch::TdmaRound& tdma,
                                         const HopaOptions& options = {});

/// The non-iterated initializer: local deadlines proportional to the
/// WCET-weighted progress along the longest path; deadline-monotonic
/// priorities per resource.  Used as the straightforward (SF) priority
/// assignment and as HOPA's starting point.
[[nodiscard]] HopaResult initial_deadline_monotonic(
    const model::Application& app, const arch::Platform& platform);

}  // namespace mcs::core
