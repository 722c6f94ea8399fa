// Deterministic fault injection for the discrete-event simulator.
//
// A FaultSpec describes one adversarial scenario as event-granular
// perturbations of a nominal run:
//
//   * CAN frame corruption (drop + automatic retransmission, bounded by
//     can_max_retries before the message is lost for good),
//   * CAN frame delay (extra wire occupancy, e.g. error frames ahead of
//     the transmission),
//   * a babbling-idiot CAN node that seizes arbitration with highest
//     priority for babble_tx ticks at a time,
//   * TTP frame corruption (the frame misses its MEDL slot and is
//     retransmitted in the owner's slot of the next round),
//   * bounded clock drift/jitter on the TT kernels (late releases) and on
//     the gateway transfer process,
//   * execution-time variation: actual execution times drawn uniformly
//     from [bcet_frac * wcet, wcet] instead of pinned at the WCET.
//
// Determinism contract (DESIGN.md §5): every decision is drawn from one
// of five util::Rng streams derived by FNV-1a from FaultSpec::seed (each
// seeded on its first draw, so an unused category costs nothing), and the
// simulator queries the injector only from inside event executions,
// which the EventQueue fires in a deterministic (time, insertion) order.
// A given (system, configuration, fault spec, seed) therefore replays
// bit-identically — across runs, thread counts and machines with the
// same standard library.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "mcs/util/rng.hpp"
#include "mcs/util/time.hpp"

namespace mcs::sim {

struct FaultSpec {
  std::string name = "nominal";
  std::uint64_t seed = 1;

  // CAN bus.
  double can_drop_p = 0.0;   ///< per-transmission corruption probability
  int can_max_retries = 16;  ///< retransmissions before the message is lost
  double can_delay_p = 0.0;  ///< per-transmission extra-delay probability
  util::Time can_delay_max = 0;  ///< uniform [1, max] extra wire ticks

  // TTP bus: a dropped frame is retransmitted one TDMA round later.
  double ttp_drop_p = 0.0;
  int ttp_max_retries = 16;  ///< consecutive round losses before giving up

  // Babbling idiot: at every arbitration point the rogue node wins with
  // probability babble_p and holds the bus for babble_tx ticks.
  double babble_p = 0.0;
  util::Time babble_tx = 0;

  // Clock drift/jitter, both uniform in [0, max].
  util::Time tt_jitter_max = 0;       ///< added to TT schedule-table releases
  util::Time gateway_jitter_max = 0;  ///< added to the transfer-process latency

  // Execution-time variation: C drawn uniformly in [bcet, wcet] with
  // bcet = bcet_frac * wcet.  1.0 = deterministic WCET execution.
  double bcet_frac = 1.0;

  /// True when any perturbation is enabled (a nominal spec is a no-op).
  [[nodiscard]] bool any() const noexcept;

  /// Built-in scenario library for campaign sweeps: "drop" (CAN + TTP
  /// corruption), "delay" (CAN delays), "babble" (babbling idiot),
  /// "drift" (TT + gateway clock jitter), "exec" (execution-time
  /// variation), "storm" (everything at once).  Throws
  /// std::invalid_argument on an unknown name.
  [[nodiscard]] static FaultSpec scenario(const std::string& name,
                                          std::uint64_t seed);
  [[nodiscard]] static const std::vector<std::string>& scenario_names();
};

/// Parses the `key = value` fault-spec format (see examples/drop.faults):
///
///   name = bus-storm          seed = 7
///   can_drop_p = 0.05         can_max_retries = 16
///   can_delay_p = 0.1         can_delay_max = 40
///   ttp_drop_p = 0.02         ttp_max_retries = 16
///   babble_p = 0.2            babble_tx = 100
///   tt_jitter_max = 10        gateway_jitter_max = 10
///   bcet_frac = 0.5
///
/// Unknown keys, malformed values and out-of-range probabilities throw
/// std::invalid_argument with the offending line number.
[[nodiscard]] FaultSpec parse_fault_spec(std::istream& in);
[[nodiscard]] FaultSpec parse_fault_spec_file(const std::string& path);

/// What the injector actually did during one run (all zero for a nominal
/// spec); reported in SimResult::faults.
struct FaultCounters {
  std::int64_t can_frames_dropped = 0;
  std::int64_t can_messages_lost = 0;  ///< retry budget exhausted
  std::int64_t can_frames_delayed = 0;
  std::int64_t ttp_frames_dropped = 0;
  std::int64_t ttp_messages_lost = 0;
  std::int64_t babble_seizures = 0;
  std::int64_t tt_jitter_events = 0;       ///< releases perturbed by > 0
  std::int64_t gateway_jitter_events = 0;  ///< transfers perturbed by > 0
  std::int64_t exec_variations = 0;        ///< executions shorter than WCET

  [[nodiscard]] std::int64_t total() const noexcept {
    return can_frames_dropped + can_messages_lost + can_frames_delayed +
           ttp_frames_dropped + ttp_messages_lost + babble_seizures +
           tt_jitter_events + gateway_jitter_events + exec_variations;
  }
};

/// Draw-by-draw fault oracle the simulator consults at event granularity.
/// Each fault category owns an independent RNG stream (derived from the
/// spec seed by FNV-1a over the category index) so enabling one category
/// does not perturb the decisions of another.  A stream is seeded on its
/// first draw; since the seed depends on (seed, category) alone, when that
/// happens cannot change any draw.
class FaultInjector {
public:
  explicit FaultInjector(const FaultSpec& spec);

  [[nodiscard]] const FaultSpec& spec() const noexcept { return spec_; }

  /// Actual execution time for one dispatch (counts a variation when the
  /// draw lands below the WCET).
  [[nodiscard]] util::Time exec_time(util::Time wcet);

  /// One CAN transmission attempt: true = frame corrupted.
  [[nodiscard]] bool corrupt_can_frame();

  /// Extra wire delay ahead of one CAN transmission (0 most of the time).
  [[nodiscard]] util::Time can_extra_delay();

  /// Number of consecutive TDMA rounds a TTP frame loses to corruption
  /// (0 = clean).  Capped at ttp_max_retries + 1; a value above
  /// ttp_max_retries means the frame is lost.
  [[nodiscard]] int ttp_round_losses();

  /// True when the babbling idiot wins this arbitration.
  [[nodiscard]] bool babble();

  [[nodiscard]] util::Time tt_release_jitter();
  [[nodiscard]] util::Time gateway_jitter();

  FaultCounters counters;

private:
  enum Stream : std::size_t { kExec, kCan, kTtp, kBabble, kClock, kStreams };

  /// The category's stream, seeded on first use.
  [[nodiscard]] util::Rng& stream(Stream category);

  FaultSpec spec_;
  std::array<std::optional<util::Rng>, kStreams> streams_;
};

}  // namespace mcs::sim
