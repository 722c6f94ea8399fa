// Registry export of the engine's bespoke per-workspace statistics.
//
// The hot paths keep their cheap single-threaded accumulators (DeltaStats
// on AnalysisWorkspace): a job publishes them into the global metrics
// registry ONCE, at job end, from the worker thread that owns them.
// Job-end granularity keeps the inner loops untouched while the registry
// still ends up with campaign-wide totals — and because every published
// value is deterministic per job, the merged totals are bit-stable for
// any `--jobs` value.
#pragma once

namespace mcs::core {
class AnalysisWorkspace;
}
namespace mcs::sim {
struct FaultCounters;
}

namespace mcs::obs {

/// Publishes one finished job's analysis-engine counters: DeltaStats
/// (delta replays, fallbacks, memo hits, skips), the
/// kernel that ran and the scratch footprint (gauge, max over jobs).
/// No-op while metrics are disabled.
void publish_workspace(const core::AnalysisWorkspace& workspace,
                       const char* kernel_name);

/// Re-exports one simulation's injected-fault counters (sim/fault.hpp)
/// as sim.faults.* metrics.  No-op while metrics are disabled.
void publish_fault_counters(const sim::FaultCounters& counters);

}  // namespace mcs::obs
