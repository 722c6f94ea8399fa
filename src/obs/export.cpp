#include "mcs/obs/export.hpp"

#include <string>

#include "mcs/core/analysis_workspace.hpp"
#include "mcs/obs/metrics.hpp"
#include "mcs/sim/fault.hpp"

namespace mcs::obs {

void publish_workspace(const core::AnalysisWorkspace& workspace,
                       const char* kernel_name) {
  if (!metrics_enabled()) return;
  const core::DeltaStats& d = workspace.delta_stats();

  static const Counter full_runs = counter("delta.full_runs");
  static const Counter delta_runs = counter("delta.delta_runs");
  static const Counter fallbacks = counter("delta.fallbacks");
  static const Counter checked = counter("delta.checked");
  static const Counter mismatches = counter("delta.mismatches");
  static const Counter memo_hits = counter("delta.schedule_memo_hits");
  static const Counter elided = counter("delta.elided_iterations");
  static const Counter comp_skipped = counter("delta.components_skipped");
  static const Counter comp_recomputed = counter("delta.components_recomputed");
  static const Counter cand_hits = counter("delta.cand_cache_hits");
  static const Counter cand_rebuilds = counter("delta.cand_cache_rebuilds");
  static const Counter intra = counter("delta.intra_skips");
  static const Counter p1_skips = counter("delta.p1_graph_skips");
  static const Gauge scratch_max = gauge("workspace.scratch_bytes_max");

  full_runs.add(d.full_runs);
  delta_runs.add(d.delta_runs);
  fallbacks.add(d.fallbacks);
  checked.add(d.checked);
  mismatches.add(d.mismatches);
  memo_hits.add(d.schedule_memo_hits);
  elided.add(d.elided_iterations);
  comp_skipped.add(d.components_skipped);
  comp_recomputed.add(d.components_recomputed);
  cand_hits.add(d.cand_cache_hits);
  cand_rebuilds.add(d.cand_cache_rebuilds);
  intra.add(d.intra_skips);
  p1_skips.add(d.p1_graph_skips);
  scratch_max.record_max(
      static_cast<std::int64_t>(workspace.scratch_footprint_bytes()));

  // Runtime-named registration: one mutex hop per job.
  counter(std::string("kernel.jobs.") + kernel_name).add(1);
}

void publish_fault_counters(const sim::FaultCounters& counters) {
  if (!metrics_enabled()) return;
  static const Counter can_dropped = counter("sim.faults.can_frames_dropped");
  static const Counter can_lost = counter("sim.faults.can_messages_lost");
  static const Counter can_delayed = counter("sim.faults.can_frames_delayed");
  static const Counter ttp_dropped = counter("sim.faults.ttp_frames_dropped");
  static const Counter ttp_lost = counter("sim.faults.ttp_messages_lost");
  static const Counter babble = counter("sim.faults.babble_seizures");
  static const Counter tt_jitter = counter("sim.faults.tt_jitter_events");
  static const Counter gw_jitter = counter("sim.faults.gateway_jitter_events");
  static const Counter exec = counter("sim.faults.exec_variations");

  can_dropped.add(static_cast<std::uint64_t>(counters.can_frames_dropped));
  can_lost.add(static_cast<std::uint64_t>(counters.can_messages_lost));
  can_delayed.add(static_cast<std::uint64_t>(counters.can_frames_delayed));
  ttp_dropped.add(static_cast<std::uint64_t>(counters.ttp_frames_dropped));
  ttp_lost.add(static_cast<std::uint64_t>(counters.ttp_messages_lost));
  babble.add(static_cast<std::uint64_t>(counters.babble_seizures));
  tt_jitter.add(static_cast<std::uint64_t>(counters.tt_jitter_events));
  gw_jitter.add(static_cast<std::uint64_t>(counters.gateway_jitter_events));
  exec.add(static_cast<std::uint64_t>(counters.exec_variations));
}

}  // namespace mcs::obs
