// Design-space moves shared by the hill-climbing (OptimizeResources) and
// simulated-annealing (SAS/SAR) searches (paper §5.1):
//
//   * moving a TTC process or message inside its [ASAP, ALAP] interval,
//   * swapping the priorities of two ETC processes or two CAN messages,
//   * increasing/decreasing a TDMA slot length,
//   * swapping two slots inside the TDMA round.
//
// A candidate solution is the synthesizable part of psi: beta (the TDMA
// round), pi (priorities) and the TTC pinning constraints realizing the
// "move inside [ASAP, ALAP]" transformation.  `evaluate` turns a candidate
// into the paper's two objectives (delta_Gamma and s_total) by running the
// full MultiClusterScheduling fixed point.
#pragma once

#include <cstdint>
#include <variant>
#include <vector>

#include "mcs/core/degree_of_schedulability.hpp"
#include "mcs/core/multi_cluster_scheduling.hpp"
#include "mcs/sched/asap_alap.hpp"
#include "mcs/util/rng.hpp"

namespace mcs::core {

/// The synthesizable genotype.
struct Candidate {
  arch::TdmaRound tdma;
  std::vector<Priority> process_priorities;  ///< by ProcessId (ETC only used)
  std::vector<Priority> message_priorities;  ///< by MessageId (CAN only used)
  sched::ScheduleConstraints pins;           ///< TTC shift moves

  [[nodiscard]] static Candidate initial(const model::Application& app,
                                         const arch::Platform& platform);

  /// Builds the SystemConfig (phi left to MultiClusterScheduling).
  [[nodiscard]] SystemConfig to_config(const model::Application& app) const;
};

/// A candidate plus everything the optimizers rank on.
struct Evaluation {
  Schedulability delta;
  std::int64_t s_total = 0;
  bool schedulable = false;
  McsResult mcs;  ///< full analysis (kept: move generation reads it)
};

struct ShiftProcessMove {
  util::ProcessId process;
  util::Time release;  ///< new earliest start inside [ASAP, ALAP]
};
struct ShiftMessageMove {
  util::MessageId message;
  util::Time tx;  ///< new earliest TTP transmission
};
struct SwapProcessPrioritiesMove {
  util::ProcessId a, b;
};
struct SwapMessagePrioritiesMove {
  util::MessageId a, b;
};
struct ResizeSlotMove {
  std::size_t slot;
  util::Time new_length;
};
struct SwapSlotsMove {
  std::size_t a, b;
};

using Move = std::variant<ShiftProcessMove, ShiftMessageMove,
                          SwapProcessPrioritiesMove, SwapMessagePrioritiesMove,
                          ResizeSlotMove, SwapSlotsMove>;

[[nodiscard]] std::string to_string(const Move& move);

/// Precomputed immutable context shared by every move/evaluation call.
/// Owns the per-search AnalysisWorkspace (mutable behind the const
/// interface; a MoveContext is single-threaded like the search loops that
/// use it).  Ownership contract (DESIGN.md §4): never share a MoveContext
/// — or the workspace it owns — across threads, even through const
/// references; parallel searches build one MoveContext per thread of
/// execution, as the campaign engine does per job.
class MoveContext {
public:
  MoveContext(const model::Application& app, const arch::Platform& platform,
              McsOptions mcs_options);

  [[nodiscard]] const model::Application& app() const noexcept { return app_; }
  [[nodiscard]] const arch::Platform& platform() const noexcept { return platform_; }
  [[nodiscard]] const model::ReachabilityIndex& reachability() const noexcept {
    return workspace_.reachability();
  }
  [[nodiscard]] const McsOptions& mcs_options() const noexcept { return mcs_options_; }

  /// The reusable analysis workspace (hopa/optimize_schedule thread it
  /// through their own MultiClusterScheduling calls).
  [[nodiscard]] AnalysisWorkspace& workspace() const noexcept { return workspace_; }
  /// Counters of the workspace's incremental-evaluation machinery
  /// (delta/full runs, fallbacks, Check-mode comparisons; DESIGN.md §2).
  [[nodiscard]] const DeltaStats& delta_stats() const noexcept {
    return workspace_.delta_stats();
  }

  /// ETC processes (priority swaps apply to these).
  [[nodiscard]] const std::vector<util::ProcessId>& et_processes() const noexcept {
    return et_processes_;
  }
  /// CAN-borne messages (priority swaps apply to these).
  [[nodiscard]] const std::vector<util::MessageId>& can_messages() const noexcept {
    return workspace_.can_messages();
  }
  /// TT processes (shift moves apply to these).
  [[nodiscard]] const std::vector<util::ProcessId>& tt_processes() const noexcept {
    return tt_processes_;
  }
  /// TT-sourced remote messages (shift moves apply to these).
  [[nodiscard]] const std::vector<util::MessageId>& tt_messages() const noexcept {
    return tt_messages_;
  }
  /// Candidate lengths for the slot owned by `owner`.
  [[nodiscard]] const std::vector<util::Time>& slot_lengths(util::NodeId owner) const;

  /// Runs the full MultiClusterScheduling fixed point for `candidate`.
  [[nodiscard]] Evaluation evaluate(const Candidate& candidate) const;

  /// Scores an analysis the caller already ran under mcs_options() on
  /// workspace() (HOPA's winning round): the result equals evaluate() of
  /// the analyzed candidate, without a second fixed point.
  [[nodiscard]] Evaluation adopt(McsResult mcs) const;

  /// Applies a move in place.  Returns false when the move is a no-op for
  /// this candidate (e.g. resizing to the current length).
  bool apply(const Move& move, Candidate& candidate) const;

  /// Neighborhood for hill climbing: a deterministic sample of moves around
  /// `current` informed by its evaluation (mobility windows, slot usage).
  [[nodiscard]] std::vector<Move> generate_neighbors(const Candidate& current,
                                                     const Evaluation& eval,
                                                     std::size_t max_moves) const;

  /// One random move for simulated annealing.
  [[nodiscard]] Move random_move(const Candidate& current, const Evaluation& eval,
                                 util::Rng& rng) const;

private:
  const model::Application& app_;
  const arch::Platform& platform_;
  McsOptions mcs_options_;
  mutable AnalysisWorkspace workspace_;
  std::vector<util::ProcessId> et_processes_;
  std::vector<util::ProcessId> tt_processes_;
  std::vector<util::MessageId> tt_messages_;
  std::vector<std::vector<util::Time>> slot_lengths_by_node_;

  [[nodiscard]] sched::MobilityWindows mobility(const Evaluation& eval) const;
};

}  // namespace mcs::core
