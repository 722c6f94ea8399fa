// Span tracer unit tests: B/E balance (including spans that unwind via
// exceptions and spans crossing a stop_tracing), per-thread buffers,
// Chrome trace-event JSON well-formedness, and the disabled no-op.
#include "mcs/obs/trace.hpp"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "json_check.hpp"

namespace mcs::obs {
namespace {

/// One parsed line of write_chrome_trace's traceEvents array (the writer
/// emits exactly one event per line; see trace.cpp).
struct ParsedEvent {
  std::string name;
  char phase = '?';
  int tid = -1;
};

[[nodiscard]] std::vector<ParsedEvent> parse_events(const std::string& json) {
  std::vector<ParsedEvent> events;
  std::istringstream lines(json);
  std::string line;
  while (std::getline(lines, line)) {
    const std::size_t name_pos = line.find("{\"name\":\"");
    if (name_pos == std::string::npos) continue;
    ParsedEvent e;
    const std::size_t name_start = name_pos + 9;
    e.name = line.substr(name_start, line.find('"', name_start) - name_start);
    const std::size_t ph = line.find("\"ph\":\"");
    const std::size_t tid = line.find("\"tid\":");
    if (ph == std::string::npos || tid == std::string::npos) continue;
    e.phase = line[ph + 6];
    e.tid = std::stoi(line.substr(tid + 6));
    events.push_back(std::move(e));
  }
  return events;
}

/// Asserts every thread's B/E events form a balanced bracket sequence
/// with matching names.
void expect_balanced(const std::vector<ParsedEvent>& events) {
  std::map<int, std::vector<std::string>> stacks;
  for (const ParsedEvent& e : events) {
    if (e.phase == 'B') {
      stacks[e.tid].push_back(e.name);
    } else if (e.phase == 'E') {
      auto& stack = stacks[e.tid];
      ASSERT_FALSE(stack.empty()) << "E without B: " << e.name;
      EXPECT_EQ(stack.back(), e.name) << "mismatched span nesting";
      stack.pop_back();
    } else {
      ADD_FAILURE() << "unknown phase " << e.phase;
    }
  }
  for (const auto& [tid, stack] : stacks) {
    EXPECT_TRUE(stack.empty()) << "unclosed span on tid " << tid;
  }
}

[[nodiscard]] std::string collect_trace() {
  stop_tracing();
  std::ostringstream out;
  write_chrome_trace(out);
  return out.str();
}

TEST(Trace, DisabledSpansRecordNothing) {
  // No start_tracing: constructing spans must be free of side effects.
  stop_tracing();
  {
    const Span span("test.disabled");
  }
  start_tracing();  // clears buffers
  stop_tracing();
  EXPECT_EQ(trace_event_count(), 0u);
}

TEST(Trace, BalancedNestedSpansSingleThread) {
  start_tracing();
  {
    const Span outer("outer", 1);
    {
      const Span inner("inner");
    }
    const Span sibling("sibling");
  }
  const std::string json = collect_trace();
  EXPECT_TRUE(mcs::test::is_valid_json(json)) << json;

  const std::vector<ParsedEvent> events = parse_events(json);
  ASSERT_EQ(events.size(), 6u);  // 3 spans x B,E
  expect_balanced(events);
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[0].phase, 'B');
}

TEST(Trace, SpansClosedByExceptionStayBalanced) {
  start_tracing();
  try {
    const Span span("throwing");
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  const std::string json = collect_trace();
  expect_balanced(parse_events(json));
  EXPECT_EQ(trace_event_count(), 2u);
}

TEST(Trace, SpanOpenAcrossStopStaysBalanced) {
  start_tracing();
  {
    const Span span("crossing");
    stop_tracing();
    // The E side is gated on the recorded B, not on the enabled flag, so
    // this destructor must still write its E event.
  }
  expect_balanced(parse_events(collect_trace()));
  EXPECT_EQ(trace_event_count(), 2u);
}

TEST(Trace, PerThreadBuffersMergeIntoOneDocument) {
  start_tracing();
  constexpr int kThreads = 4;
  constexpr int kSpans = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpans; ++i) {
        const Span span("worker", static_cast<std::uint64_t>(i));
      }
    });
  }
  for (auto& th : threads) th.join();

  const std::string json = collect_trace();
  EXPECT_TRUE(mcs::test::is_valid_json(json)) << "invalid trace JSON";
  const std::vector<ParsedEvent> events = parse_events(json);
  EXPECT_EQ(events.size(), static_cast<std::size_t>(kThreads) * kSpans * 2);
  expect_balanced(events);

  std::map<int, int> per_tid;
  for (const ParsedEvent& e : events) ++per_tid[e.tid];
  EXPECT_EQ(per_tid.size(), static_cast<std::size_t>(kThreads));
  for (const auto& [tid, n] : per_tid) EXPECT_EQ(n, kSpans * 2);
}

TEST(Trace, StartTracingClearsPreviousRun) {
  start_tracing();
  { const Span span("first-run"); }
  EXPECT_EQ(trace_event_count(), 2u);
  start_tracing();  // second run: previous events are gone
  { const Span span("second-run"); }
  const std::string json = collect_trace();
  EXPECT_EQ(trace_event_count(), 2u);
  EXPECT_EQ(json.find("first-run"), std::string::npos);
  EXPECT_NE(json.find("second-run"), std::string::npos);
}

TEST(Trace, EmptyTraceIsStillValidJson) {
  start_tracing();
  const std::string json = collect_trace();
  EXPECT_TRUE(mcs::test::is_valid_json(json)) << json;
  EXPECT_NE(json.find("\"dropped_events\":\"0\""), std::string::npos) << json;
}

}  // namespace
}  // namespace mcs::obs
