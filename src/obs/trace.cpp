#include "mcs/obs/trace.hpp"

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <ostream>
#include <vector>

namespace mcs::obs {

namespace {

using Clock = std::chrono::steady_clock;

/// Soft cap per thread buffer: a B event that does not fit silences its
/// span (keeping B/E balanced); the drop count is reported in the trace
/// metadata so silent truncation is visible.  E events always append —
/// the cap is only checked on the B side, so the vector can exceed it by
/// the nesting depth at most.
constexpr std::size_t kMaxEventsPerThread = 1 << 20;

struct Event {
  const char* name;
  std::int64_t ts_us;
  std::uint64_t arg;
  char phase;  ///< 'B' | 'E'
  bool has_arg;
};

struct TraceBuffer {
  std::vector<Event> events;
  std::uint32_t tid = 0;
  std::uint64_t dropped = 0;
};

struct TraceState {
  std::mutex mutex;
  std::vector<std::unique_ptr<TraceBuffer>> buffers;
  std::uint32_t next_tid = 1;
  Clock::time_point epoch = Clock::now();
  std::atomic<bool> enabled{false};
  /// Bumped by start_tracing; thread-local buffer pointers from an older
  /// generation are stale and re-acquired instead of dereferenced.
  std::atomic<std::uint64_t> generation{0};
};

TraceState& state() {
  // Leaked on purpose: a worker thread that exits after main() returns
  // may still close a span into its buffer.
  static TraceState* s = new TraceState();
  return *s;
}

thread_local TraceBuffer* t_buffer = nullptr;
thread_local std::uint64_t t_generation = 0;

TraceBuffer& local_buffer() {
  TraceState& s = state();
  const std::uint64_t generation = s.generation.load(std::memory_order_acquire);
  if (t_buffer == nullptr || t_generation != generation) {
    auto buffer = std::make_unique<TraceBuffer>();
    const std::lock_guard lock(s.mutex);
    buffer->tid = s.next_tid++;
    s.buffers.push_back(std::move(buffer));
    t_buffer = s.buffers.back().get();
    t_generation = s.generation.load(std::memory_order_relaxed);
  }
  return *t_buffer;
}

[[nodiscard]] std::int64_t now_us() {
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               state().epoch)
      .count();
}

void begin_span(const char*& name_out, const char* name, std::uint64_t arg,
                bool has_arg) noexcept {
  if (!tracing_enabled()) return;
  TraceBuffer& buffer = local_buffer();
  if (buffer.events.size() >= kMaxEventsPerThread) {
    ++buffer.dropped;
    return;
  }
  buffer.events.push_back({name, now_us(), arg, 'B', has_arg});
  name_out = name;
}

}  // namespace

bool tracing_enabled() noexcept {
  return state().enabled.load(std::memory_order_relaxed);
}

void start_tracing() {
  TraceState& s = state();
  const std::lock_guard lock(s.mutex);
  s.buffers.clear();
  s.next_tid = 1;
  s.epoch = Clock::now();
  s.generation.fetch_add(1, std::memory_order_release);
  t_buffer = nullptr;  // the calling thread re-acquires like everyone else
  s.enabled.store(true, std::memory_order_relaxed);
}

void stop_tracing() noexcept {
  state().enabled.store(false, std::memory_order_relaxed);
}

Span::Span(const char* name) noexcept { begin_span(name_, name, 0, false); }

Span::Span(const char* name, std::uint64_t arg) noexcept {
  begin_span(name_, name, arg, true);
}

Span::~Span() {
  if (name_ == nullptr) return;
  // t_buffer is the buffer the B event went into: same thread, and the
  // generation cannot have changed while a span is open (start_tracing is
  // only called between runs).
  t_buffer->events.push_back({name_, now_us(), 0, 'E', false});
}

std::size_t trace_event_count() {
  TraceState& s = state();
  const std::lock_guard lock(s.mutex);
  std::size_t total = 0;
  for (const auto& buffer : s.buffers) total += buffer->events.size();
  return total;
}

void write_chrome_trace(std::ostream& out) {
  TraceState& s = state();
  const std::lock_guard lock(s.mutex);
  out << "{\"traceEvents\":[";
  bool first = true;
  std::uint64_t dropped = 0;
  for (const auto& buffer : s.buffers) {
    dropped += buffer->dropped;
    for (const Event& e : buffer->events) {
      out << (first ? "\n" : ",\n");
      first = false;
      out << "{\"name\":\"" << e.name << "\",\"ph\":\"" << e.phase
          << "\",\"ts\":" << e.ts_us << ",\"pid\":1,\"tid\":" << buffer->tid;
      if (e.has_arg) out << ",\"args\":{\"v\":" << e.arg << "}";
      out << "}";
    }
  }
  out << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_events\":\""
      << dropped << "\"}}\n";
}

}  // namespace mcs::obs
