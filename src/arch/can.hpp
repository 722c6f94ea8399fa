// CAN bus substrate (paper §2.2, [4], [15]).
//
// CAN is a priority bus: frame identifiers double as priorities (a lower
// identifier wins arbitration), transmission is non-preemptive, and the
// worst-case frame transmission time C_m depends on the payload size and
// worst-case bit stuffing.  The analysis only needs C_m as a function of
// payload bytes; two timing models are provided:
//
//  * Exact CAN 2.0 timing at a given bit rate with worst-case stuffing
//    (Tindell/Burns/Wellings "Calculating CAN message response times").
//  * A linear model C_m = base + per_byte * bytes, convenient for
//    reproducing the paper's worked examples where C_m is given directly.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "mcs/util/time.hpp"

namespace mcs::arch {

using util::Time;

enum class CanFrameFormat {
  Standard,  ///< CAN 2.0A, 11-bit identifier
  Extended,  ///< CAN 2.0B, 29-bit identifier
};

/// Worst-case number of bits on the wire for a data frame with `bytes`
/// payload (0..8), including inter-frame space and worst-case stuff bits.
[[nodiscard]] std::int64_t worst_case_frame_bits(std::int64_t bytes, CanFrameFormat fmt);

/// Number of frames needed for a message of `bytes` payload (CAN payloads
/// are at most 8 bytes; larger messages are segmented).
[[nodiscard]] std::int64_t frames_for(std::int64_t bytes);

class CanBusParams {
public:
  /// Exact model: `bit_time` ticks per bit on the wire.
  [[nodiscard]] static CanBusParams exact(Time bit_time,
                                          CanFrameFormat fmt = CanFrameFormat::Standard);

  /// Linear model: tx_time(bytes) = base + per_byte * bytes.
  [[nodiscard]] static CanBusParams linear(Time base, Time per_byte);

  /// Worst-case wire time for a message of `bytes` payload (segmented into
  /// multiple frames if above 8 bytes).
  [[nodiscard]] Time tx_time(std::int64_t bytes) const;

  /// The model parameters (gen::write_system serializes them): bit_time
  /// and format for the exact model, base and per_byte for the linear one.
  [[nodiscard]] bool is_exact() const noexcept { return exact_; }
  [[nodiscard]] Time bit_time() const noexcept { return bit_time_; }
  [[nodiscard]] CanFrameFormat format() const noexcept { return fmt_; }
  [[nodiscard]] Time base() const noexcept { return base_; }
  [[nodiscard]] Time per_byte() const noexcept { return per_byte_; }

private:
  CanBusParams() = default;
  bool exact_ = false;
  Time bit_time_ = 0;
  CanFrameFormat fmt_ = CanFrameFormat::Standard;
  Time base_ = 0;
  Time per_byte_ = 0;
};

}  // namespace mcs::arch
