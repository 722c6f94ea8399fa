// TTP/TDMA bus substrate (paper §2.2, [8]).
//
// Bus access on the time-triggered cluster is TDMA: a round is a fixed
// sequence of slots, one per TTC node (the gateway included); rounds
// repeat forever.  In its slot a node broadcasts one frame that may pack
// several messages up to the slot's byte capacity.  The slot sequence and
// slot lengths form the beta part of the system configuration and are
// synthesized by the optimization heuristics.
//
// This module provides the slot calendar arithmetic the analyses need:
// "when does slot S next start at or after time t", "when does the k-th
// occurrence of S at or after t end", byte-capacity <-> slot-length
// conversion, and the round layout validation rules (every TTC node owns
// exactly one slot per round).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "mcs/util/ids.hpp"
#include "mcs/util/time.hpp"

namespace mcs::arch {

using util::NodeId;
using util::Time;

/// Electrical/protocol parameters of the TTP bus: a slot of length L can
/// carry floor((L - frame_overhead) / time_per_byte) payload bytes.
struct TtpBusParams {
  Time time_per_byte = 1;
  Time frame_overhead = 0;

  [[nodiscard]] Time length_for_bytes(std::int64_t bytes) const {
    return frame_overhead + time_per_byte * bytes;
  }
  [[nodiscard]] std::int64_t capacity_bytes(Time slot_length) const {
    const Time payload = slot_length - frame_overhead;
    return payload <= 0 ? 0 : payload / time_per_byte;
  }
};

struct Slot {
  NodeId owner = NodeId::invalid();
  Time length = 0;

  [[nodiscard]] bool operator==(const Slot&) const = default;
};

/// A TDMA round: the ordered slot sequence repeated periodically from
/// time 0.  Immutable calendar queries; the optimizers copy-and-modify.
class TdmaRound {
public:
  TdmaRound(std::vector<Slot> slots, TtpBusParams params);

  [[nodiscard]] std::span<const Slot> slots() const noexcept { return slots_; }
  [[nodiscard]] std::size_t num_slots() const noexcept { return slots_.size(); }
  [[nodiscard]] const Slot& slot(std::size_t i) const { return slots_.at(i); }
  [[nodiscard]] Time round_length() const noexcept { return round_length_; }
  [[nodiscard]] const TtpBusParams& params() const noexcept { return params_; }

  /// Index of the slot owned by `node`; throws if the node owns no slot.
  [[nodiscard]] std::size_t slot_of(NodeId node) const;
  [[nodiscard]] bool owns_slot(NodeId node) const noexcept;

  /// Start offset of slot `i` within a round (O_Si).
  [[nodiscard]] Time slot_offset(std::size_t i) const;

  /// Payload capacity of slot `i` in bytes.
  [[nodiscard]] std::int64_t slot_capacity(std::size_t i) const;

  /// Earliest start time of an occurrence of slot `i` with start >= t.
  [[nodiscard]] Time next_slot_start(std::size_t i, Time t) const;

  /// End of that occurrence (start + length).
  [[nodiscard]] Time next_slot_end(std::size_t i, Time t) const;

  /// End of the k-th occurrence (k >= 1) of slot `i` whose start is >= t:
  /// the delivery time of data that must wait for k occurrences.
  [[nodiscard]] Time kth_slot_end(std::size_t i, Time t, std::int64_t k) const;

  /// Returns a copy with slots `a` and `b` exchanged (sequence positions).
  [[nodiscard]] TdmaRound with_swapped_slots(std::size_t a, std::size_t b) const;

  /// Returns a copy with slot `i` resized to `new_length` (>= overhead).
  [[nodiscard]] TdmaRound with_slot_length(std::size_t i, Time new_length) const;

  [[nodiscard]] std::string to_string() const;

private:
  std::vector<Slot> slots_;
  TtpBusParams params_;
  Time round_length_ = 0;
  std::vector<Time> offsets_;  ///< start offset of each slot within the round
};

/// One broadcast window in the message descriptor list: during
/// [start, start+length) the owner's TTP controller transmits its frame.
struct MedlEntry {
  std::size_t slot_index = 0;
  NodeId owner = NodeId::invalid();
  Time start = 0;
  Time length = 0;
};

/// Expands the round calendar over [0, horizon): the MEDL every TTP
/// controller follows.  Used by the discrete-event simulator.
[[nodiscard]] std::vector<MedlEntry> expand_medl(const TdmaRound& round, Time horizon);

}  // namespace mcs::arch
