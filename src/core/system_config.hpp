// The system configuration psi = <phi, beta, pi> (paper §3).
//
//  * phi  — offsets for every process and message.  On the TTC the process
//           offsets ARE the local schedule tables and, together with the
//           message slot assignments, the MEDLs.  On the ETC the offsets
//           are derived earliest-release times used by the offset-aware
//           response time analysis.
//  * beta — the TDMA round on the TTP bus: slot sequence and slot lengths.
//  * pi   — priorities of ETC processes and of CAN-borne messages.
//           Convention (CAN identifiers): a SMALLER value is a HIGHER
//           priority; values are unique within their domain.
#pragma once

#include <cstdint>
#include <vector>

#include "mcs/arch/platform.hpp"
#include "mcs/arch/ttp.hpp"
#include "mcs/model/application.hpp"

namespace mcs::core {

using model::Application;
using util::MessageId;
using util::NodeId;
using util::ProcessId;
using util::Time;

using Priority = std::int32_t;

class SystemConfig {
public:
  SystemConfig(const Application& app, arch::TdmaRound tdma);

  // --- phi -----------------------------------------------------------
  [[nodiscard]] Time process_offset(ProcessId p) const { return process_offsets_.at(p.index()); }
  [[nodiscard]] Time message_offset(MessageId m) const { return message_offsets_.at(m.index()); }
  void set_process_offset(ProcessId p, Time o) { process_offsets_.at(p.index()) = o; }
  void set_message_offset(MessageId m, Time o) { message_offsets_.at(m.index()) = o; }
  [[nodiscard]] const std::vector<Time>& process_offsets() const noexcept { return process_offsets_; }
  [[nodiscard]] const std::vector<Time>& message_offsets() const noexcept { return message_offsets_; }

  // --- beta ----------------------------------------------------------
  [[nodiscard]] const arch::TdmaRound& tdma() const noexcept { return tdma_; }

  // --- pi ------------------------------------------------------------
  [[nodiscard]] Priority process_priority(ProcessId p) const {
    return process_priorities_.at(p.index());
  }
  [[nodiscard]] Priority message_priority(MessageId m) const {
    return message_priorities_.at(m.index());
  }
  void set_process_priority(ProcessId p, Priority prio) {
    process_priorities_.at(p.index()) = prio;
  }
  void set_message_priority(MessageId m, Priority prio) {
    message_priorities_.at(m.index()) = prio;
  }
  void swap_process_priorities(ProcessId a, ProcessId b) {
    std::swap(process_priorities_.at(a.index()), process_priorities_.at(b.index()));
  }
  void swap_message_priorities(MessageId a, MessageId b) {
    std::swap(message_priorities_.at(a.index()), message_priorities_.at(b.index()));
  }

  /// True when j has a higher priority than i (smaller value wins).
  [[nodiscard]] bool higher_priority_process(ProcessId j, ProcessId i) const {
    return process_priority(j) < process_priority(i);
  }
  [[nodiscard]] bool higher_priority_message(MessageId j, MessageId i) const {
    return message_priority(j) < message_priority(i);
  }

private:
  std::vector<Time> process_offsets_;
  std::vector<Time> message_offsets_;
  arch::TdmaRound tdma_;
  std::vector<Priority> process_priorities_;
  std::vector<Priority> message_priorities_;
};

/// Builds the default TDMA round for a platform: TTC nodes in ascending id
/// order (the gateway wherever it falls in that order), every slot sized to
/// carry `min_bytes_per_slot` or the largest message its owner sends,
/// whichever is bigger.  This is the "straightforward" beta the paper's SF
/// baseline and OS initialization both start from.
[[nodiscard]] arch::TdmaRound default_tdma_round(const Application& app,
                                                 const arch::Platform& platform,
                                                 std::int64_t min_bytes_per_slot = 1);

/// Largest remote message sent by a process mapped on `node` (in bytes);
/// returns `fallback` when the node sends nothing.
[[nodiscard]] std::int64_t largest_outgoing_message(const Application& app,
                                                    const arch::Platform& platform,
                                                    NodeId node, std::int64_t fallback);

}  // namespace mcs::core
