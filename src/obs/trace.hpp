// Span tracer emitting Chrome trace-event JSON (DESIGN.md §7).
//
// `mcs_synth --trace out.json` arms the tracer; the resulting file loads
// directly in chrome://tracing or https://ui.perfetto.dev.  Spans are
// recorded into per-thread buffers (no locks on the hot path) and merged
// into one JSON document at the end of the run.
//
// Determinism contract: span NAMES and COUNTS are a pure function of the
// work performed — per-analysis sampling is keyed off a deterministic
// per-workspace run counter (kAnalysisSampleEvery), never wall clock —
// so the span *structure* of a run is reproducible.  Timestamps and
// thread ids are the documented exception, exactly like the wall-clock
// `seconds` fields of campaign reports.  The tracer never feeds anything
// back into analysis state, so arming it cannot change a result
// (asserted by tests/obs/zero_interference_test.cpp).
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>

namespace mcs::obs {

/// Every kAnalysisSampleEvery-th analysis run of a workspace gets
/// mcs.run/mcs.iteration/rta.pass spans; the rest stay silent.  Keyed off
/// AnalysisWorkspace's deterministic run counter, NOT wall clock, so the
/// sampled-run set is identical across reruns and thread counts.
inline constexpr std::uint64_t kAnalysisSampleEvery = 64;

[[nodiscard]] bool tracing_enabled() noexcept;

/// Clears previously collected events, restarts the trace clock and
/// enables recording.  Not safe concurrently with recording threads —
/// call from the orchestration point (CLI main, bench harness) while no
/// jobs are in flight.
void start_tracing();

/// Disables recording; collected events stay available for writing.
void stop_tracing() noexcept;

/// Merges every thread buffer into one Chrome trace-event JSON document.
/// Call after the recording threads are done (the campaign engine joins
/// its pool before returning, so "after run_campaign" is safe).
void write_chrome_trace(std::ostream& out);

/// Collected event count (all threads) — test/bench plumbing.
[[nodiscard]] std::size_t trace_event_count();

/// RAII span: records a 'B' event at construction and the matching 'E' at
/// destruction.  When tracing is off (or the per-thread buffer is full)
/// construction is one relaxed atomic load and the span stays silent —
/// the E side is gated on whether the B side was recorded, so B/E events
/// always balance even when tracing is toggled mid-span.  A span must be
/// destroyed on the thread that created it.
class Span {
public:
  explicit Span(const char* name) noexcept;
  Span(const char* name, std::uint64_t arg) noexcept;
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

private:
  const char* name_ = nullptr;  ///< non-null while armed
};

}  // namespace mcs::obs
