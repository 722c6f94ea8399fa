// 64-bit FNV-1a: tiny and deterministic across runs and platforms
// (unlike std::hash).  Report signatures, journal checksums, spec digests,
// fault-stream seeds and the analysis trace digests are built from it.
#pragma once

#include <cstdint>

namespace mcs::util {

inline constexpr std::uint64_t kFnv1aOffsetBasis = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnv1aPrime = 1099511628211ULL;

/// Incremental 64-bit FNV-1a.
class Fnv1a {
public:
  constexpr void update_byte(std::uint8_t byte) noexcept {
    state_ = (state_ ^ byte) * kFnv1aPrime;
  }

  constexpr void update(std::uint64_t word) noexcept {
    for (int shift = 0; shift < 64; shift += 8) {
      update_byte(static_cast<std::uint8_t>(word >> shift));
    }
  }

  constexpr void update(std::int64_t word) noexcept {
    update(static_cast<std::uint64_t>(word));
  }

  [[nodiscard]] constexpr std::uint64_t digest() const noexcept { return state_; }

private:
  std::uint64_t state_ = kFnv1aOffsetBasis;
};

}  // namespace mcs::util
