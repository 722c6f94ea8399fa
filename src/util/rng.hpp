// Deterministic random number generation.
//
// Every stochastic component (workload generator, simulated annealing,
// hill-climbing tie breaks) draws from an explicitly seeded Rng so that
// experiments are reproducible run-to-run and across machines.
#pragma once

#include <array>
#include <cstdint>
#include <random>
#include <span>
#include <stdexcept>
#include <vector>

namespace mcs::util {

/// The std::mt19937_64 sequence, bit for bit, with each state word twisted
/// when it is drawn instead of all 312 on the draw that starts a new
/// generation.  A stream that draws k numbers pays for k twist steps, not
/// 312: the simulator's fault streams draw a handful each.
class Mt19937_64 {
public:
  using result_type = std::uint64_t;
  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  explicit Mt19937_64(result_type seed) noexcept {
    state_[0] = seed;
    for (std::size_t i = 1; i < kN; ++i) {
      state_[i] = 6364136223846793005ULL * (state_[i - 1] ^ (state_[i - 1] >> 62)) + i;
    }
  }

  result_type operator()() noexcept {
    // Twisting word k in order reads the same words the all-at-once twist
    // reads: k + 1 and k + m of the last generation, or k + m - n of this
    // one for k >= n - m.
    const std::size_t k = next_;
    const std::size_t k1 = k + 1 == kN ? 0 : k + 1;
    next_ = k1;
    const result_type y = (state_[k] & kUpper) | (state_[k1] & ~kUpper);
    const std::size_t km = k < kN - kM ? k + kM : k + kM - kN;
    state_[k] = state_[km] ^ (y >> 1) ^ ((y & 1) ? 0xb5026f5aa96619e9ULL : 0);
    result_type z = state_[k];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    return z ^ (z >> 43);
  }

private:
  static constexpr std::size_t kN = 312;
  static constexpr std::size_t kM = 156;
  static constexpr result_type kUpper = ~result_type{0} << 31;
  std::array<result_type, kN> state_;
  std::size_t next_ = 0;  ///< the next word to twist and return
};

class Rng {
public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform integer in [lo, hi] (inclusive).  Requires lo <= hi.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform real in [lo, hi).
  [[nodiscard]] double uniform_real(double lo, double hi);

  /// Exponential with the given mean (> 0).
  [[nodiscard]] double exponential(double mean);

  /// True with probability p in [0, 1].
  [[nodiscard]] bool bernoulli(double p);

  /// Uniformly chosen index into a container of the given size (> 0).
  [[nodiscard]] std::size_t index(std::size_t size);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[index(i)]);
    }
  }

  /// Derive an independent child generator (for per-instance seeding).
  [[nodiscard]] Rng fork();

  [[nodiscard]] Mt19937_64& engine() noexcept { return engine_; }

private:
  Mt19937_64 engine_;
};

}  // namespace mcs::util
