// Deterministic metrics registry (DESIGN.md §7).
//
// Named counters, gauges and fixed-bucket histograms, designed so that
//
//   * hot-path recording is one relaxed atomic RMW into a PER-THREAD
//     shard (no locks, no false sharing with other threads' increments,
//     no allocation after the shard exists), and
//   * a snapshot merges the shards by plain integer addition in
//     deterministic NAME order — addition is commutative, so as long as
//     the recorded values themselves are deterministic (which every call
//     site in this codebase guarantees: per-job counters are published
//     from single-threaded job code), the merged snapshot is bit-stable
//     for any `--jobs` value.
//
// Recording is gated on a single global flag (set_metrics_enabled); when
// it is off every record call is one relaxed atomic load and a branch,
// which is what keeps the zero-interference overhead budget (<2%,
// perfbench's obs.trace_overhead_frac) honest.  Instruments never touch
// analysis state, so enabling them cannot change any deterministic
// result field.
//
// Handles (Counter/Gauge/Histogram) are cheap value types; the intended
// call-site idiom registers once per process via a function-local static:
//
//   static const obs::Counter c = obs::counter("runtime.jobs_done");
//   c.add();
//
// Gauges are NOT sharded (a last-writer-wins per-thread merge would be
// scheduling-dependent): `set` is a plain store for single-threaded
// contexts, `record_max` is a fetch_max — order-independent and therefore
// safe to call from concurrent jobs without breaking snapshot stability.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace mcs::obs {

/// Global recording gate.  Off by default; `mcs_synth --metrics` and the
/// benches/tests turn it on.  Reading it is one relaxed atomic load.
[[nodiscard]] bool metrics_enabled() noexcept;
void set_metrics_enabled(bool on) noexcept;

class Counter {
public:
  /// Relaxed fetch_add into the calling thread's shard; no-op while
  /// metrics are disabled.
  void add(std::uint64_t n = 1) const;

private:
  friend Counter counter(std::string_view);
  explicit Counter(std::uint32_t slot) noexcept : slot_(slot) {}
  std::uint32_t slot_;
};

class Gauge {
public:
  /// Last-writer-wins store: only meaningful from single-threaded or
  /// otherwise deterministic contexts.
  void set(std::int64_t value) const;
  /// fetch_max: order-independent, safe from concurrent jobs.
  void record_max(std::int64_t value) const;

private:
  friend Gauge gauge(std::string_view);
  explicit Gauge(std::uint32_t slot) noexcept : slot_(slot) {}
  std::uint32_t slot_;
};

class Histogram {
public:
  /// Adds `value` to the first bucket whose (inclusive) upper bound is
  /// >= value, or to the overflow bucket; also bumps count and sum.
  void record(std::int64_t value) const;

private:
  friend Histogram histogram(std::string_view, std::span<const std::int64_t>);
  Histogram(std::uint32_t base, const std::int64_t* bounds,
            std::uint32_t num_bounds) noexcept
      : base_(base), bounds_(bounds), num_bounds_(num_bounds) {}
  std::uint32_t base_;  ///< first bucket slot; count/sum slots follow
  const std::int64_t* bounds_;
  std::uint32_t num_bounds_;
};

/// Registers (or looks up) a metric by name.  Registration takes the
/// registry mutex once; the returned handle records lock-free.  A name
/// registered twice with the same shape returns an equivalent handle;
/// re-registering under a different kind (or different histogram bounds)
/// throws std::logic_error.  The slot space is fixed (kMaxSlots); running
/// out throws std::length_error — registration is a startup-time concern,
/// not a hot-path one.
[[nodiscard]] Counter counter(std::string_view name);
[[nodiscard]] Gauge gauge(std::string_view name);
/// `bounds` are sorted inclusive bucket upper bounds; an overflow bucket
/// is always appended.
[[nodiscard]] Histogram histogram(std::string_view name,
                                  std::span<const std::int64_t> bounds);

struct MetricValue {
  enum class Kind { Counter, Gauge, Histogram };
  std::string name;
  Kind kind = Kind::Counter;
  std::uint64_t value = 0;   ///< counter total
  std::int64_t gauge = 0;    ///< gauge value
  std::vector<std::int64_t> bounds;     ///< histogram bucket upper bounds
  std::vector<std::uint64_t> buckets;   ///< bounds.size() + 1 (overflow)
  std::uint64_t count = 0;   ///< histogram sample count
  std::uint64_t sum = 0;     ///< histogram sample sum
};

struct MetricsSnapshot {
  std::vector<MetricValue> metrics;  ///< sorted by name

  [[nodiscard]] const MetricValue* find(std::string_view name) const noexcept;
};

/// Merges every thread shard under the registry mutex.  Deterministic for
/// deterministic inputs: metrics appear in name order and shard merging
/// is integer addition (gauges: max of per-slot values is taken directly
/// from the unsharded store).
[[nodiscard]] MetricsSnapshot snapshot_metrics();

/// One machine-readable snapshot (`mcs_synth --metrics out.json`).
void write_metrics_json(const MetricsSnapshot& snapshot, std::ostream& out);

/// Zeroes every recorded value (registrations and handles stay valid).
/// Test/bench plumbing; not thread-safe against concurrent recording.
void reset_metrics();

}  // namespace mcs::obs
