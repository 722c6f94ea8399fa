// The `--metrics` snapshot (DESIGN.md §7): a report of a finished run,
// computed from its result.  Every value is a deterministic fact about
// the jobs — each job's engine counters, row states, strategy outcomes,
// scenario fault counters and the journal writer's own count — and the
// per-job values merge by sum or max, so the snapshot is byte-identical
// for any worker count.  campaign.hpp and validation.hpp declare each
// kind's metrics_snapshot().
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "mcs/core/analysis_workspace.hpp"

namespace mcs::exp {

/// One metric: a counter, a gauge or the fixed-point iteration histogram.
struct MetricValue {
  enum class Kind { Counter, Gauge, Histogram };
  Kind kind = Kind::Counter;
  std::uint64_t value = 0;  ///< counter total or gauge value
  /// Histogram only: core::DeltaStats::runs_by_iterations and the sum of
  /// the recorded iteration counts.
  std::vector<std::uint64_t> buckets;
  std::uint64_t sum = 0;

  [[nodiscard]] static MetricValue counter(std::uint64_t v) {
    return {Kind::Counter, v, {}, 0};
  }
  [[nodiscard]] std::uint64_t count() const;  ///< histogram samples
};

/// Metrics by name; the JSON lists them in this (name) order.
using MetricsSnapshot = std::map<std::string, MetricValue>;

/// One job's analysis-engine metrics: its workspace's DeltaStats as
/// delta.*, kernel.jobs.<kernel> = 1, the mcs.iterations_per_run
/// histogram and the workspace.scratch_bytes_max gauge.
[[nodiscard]] MetricsSnapshot engine_metrics(const core::AnalysisWorkspace& workspace,
                                             core::AnalysisKernel kernel);

/// Adds `from` into `into`: counters and histograms sum, gauges keep the
/// maximum.
void merge(MetricsSnapshot& into, const MetricsSnapshot& from);

/// `{"metrics": [...]}` with one entry per line.
void write_metrics_json(const MetricsSnapshot& snapshot, std::ostream& out);

}  // namespace mcs::exp
