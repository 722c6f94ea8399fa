// Bit-level pins of the discrete-event simulator.  Every run is reduced
// to two FNV-1a digests: one over the full trace text (record_trace on)
// and one over every SimResult field.  A rewrite of the event loop, the
// ready queues or the fault streams must leave both unchanged: no
// simulated instant, trace line or fault draw may move.
//
// The configurations are built without the analysis (initial candidate
// plus a list schedule with no release constraints), so a change to the
// schedulability analysis cannot move these pins.
#include <gtest/gtest.h>

#include <array>
#include <cinttypes>
#include <cstdio>
#include <string>

#include "mcs/core/analysis_types.hpp"
#include "mcs/core/moves.hpp"
#include "mcs/gen/paper_example.hpp"
#include "mcs/gen/suites.hpp"
#include "mcs/sim/simulator.hpp"
#include "mcs/util/hash.hpp"

namespace mcs::sim {
namespace {

struct Pinned {
  const model::Application& app;
  const arch::Platform& platform;
  core::SystemConfig cfg;
  sched::TtcSchedule schedule;
};

Pinned configure(const model::Application& app, const arch::Platform& platform) {
  const core::Candidate candidate = core::Candidate::initial(app, platform);
  core::SystemConfig cfg = candidate.to_config(app);
  sched::TtcSchedule schedule = sched::list_schedule(
      app, platform, cfg.tdma(), sched::ScheduleConstraints::none(app),
      sched::critical_path_priorities(app));
  for (std::size_t pi = 0; pi < app.num_processes(); ++pi) {
    const util::ProcessId p(static_cast<util::ProcessId::underlying_type>(pi));
    if (platform.is_tt(app.process(p).node)) {
      cfg.set_process_offset(p, schedule.process_start[pi]);
    }
  }
  return Pinned{app, platform, std::move(cfg), std::move(schedule)};
}

void hash_string(util::Fnv1a& h, const std::string& s) {
  h.update(static_cast<std::uint64_t>(s.size()));
  for (const char c : s) h.update_byte(static_cast<std::uint8_t>(c));
}

void hash_times(util::Fnv1a& h, const std::vector<util::Time>& v) {
  h.update(static_cast<std::uint64_t>(v.size()));
  for (const util::Time t : v) h.update(t);
}

std::uint64_t digest_result(const SimResult& r) {
  util::Fnv1a h;
  h.update(static_cast<std::uint64_t>(r.completed));
  h.update(static_cast<std::uint64_t>(r.status));
  hash_times(h, r.process_start);
  hash_times(h, r.process_completion);
  hash_times(h, r.message_delivery);
  hash_times(h, r.graph_response);
  h.update(r.max_out_can);
  h.update(r.max_out_ttp);
  h.update(static_cast<std::uint64_t>(r.max_out_node.size()));
  for (const auto& [node, bytes] : r.max_out_node) {
    h.update(static_cast<std::uint64_t>(node.index()));
    h.update(bytes);
  }
  h.update(static_cast<std::uint64_t>(r.violations.size()));
  for (const std::string& v : r.violations) hash_string(h, v);
  const FaultCounters& f = r.faults;
  for (const std::int64_t c :
       {f.can_frames_dropped, f.can_messages_lost, f.can_frames_delayed,
        f.ttp_frames_dropped, f.ttp_messages_lost, f.babble_seizures,
        f.tt_jitter_events, f.gateway_jitter_events, f.exec_variations}) {
    h.update(c);
  }
  h.update(static_cast<std::uint64_t>(r.deadline_misses.size()));
  for (const DeadlineMiss& m : r.deadline_misses) {
    h.update(static_cast<std::uint64_t>(m.graph));
    h.update(m.response);
    h.update(m.deadline);
  }
  h.update(static_cast<std::uint64_t>(r.lost_messages.size()));
  for (const std::string& m : r.lost_messages) hash_string(h, m);
  h.update(static_cast<std::uint64_t>(r.bound_violations.size()));
  return h.digest();
}

struct RunDigests {
  std::uint64_t trace = 0;
  std::uint64_t result = 0;
};

/// What the pinned runs of one test exercised, so a pin cannot silently
/// stop covering a fault category or a trace kind.
struct Coverage {
  FaultCounters faults;
  std::array<std::size_t, 10> trace_kinds{};
};

/// The fault-free run first, then the six built-in scenarios in
/// FaultSpec::scenario_names() order.  Each scenario digest chains two
/// fault seeds: seed 21 drops TTP frames and seed 27 drops CAN frames.
constexpr std::size_t kRuns = 7;
constexpr std::array<std::uint64_t, 2> kFaultSeeds = {21, 27};
using SystemDigests = std::array<RunDigests, kRuns>;

void run_once(const Pinned& sys, const FaultSpec* faults, util::Fnv1a& trace,
              util::Fnv1a& result, Coverage& coverage) {
  SimOptions plain;
  SimOptions traced;
  traced.record_trace = true;
  const auto sim = [&](const SimOptions& options) {
    return faults ? simulate(sys.app, sys.platform, sys.cfg, sys.schedule,
                             options, *faults)
                  : simulate(sys.app, sys.platform, sys.cfg, sys.schedule,
                             options);
  };
  const SimResult untraced = sim(plain);
  const SimResult with_trace = sim(traced);
  // Tracing is an observer: it must not move a single result bit.
  EXPECT_EQ(digest_result(untraced), digest_result(with_trace));
  hash_string(trace, with_trace.trace.to_string());
  result.update(digest_result(untraced));

  const FaultCounters& f = untraced.faults;
  FaultCounters& c = coverage.faults;
  c.can_frames_dropped += f.can_frames_dropped;
  c.can_messages_lost += f.can_messages_lost;
  c.can_frames_delayed += f.can_frames_delayed;
  c.ttp_frames_dropped += f.ttp_frames_dropped;
  c.ttp_messages_lost += f.ttp_messages_lost;
  c.babble_seizures += f.babble_seizures;
  c.tt_jitter_events += f.tt_jitter_events;
  c.gateway_jitter_events += f.gateway_jitter_events;
  c.exec_variations += f.exec_variations;
  for (const TraceRecord& r : with_trace.trace.records()) {
    ++coverage.trace_kinds.at(static_cast<std::size_t>(r.kind));
  }
}

SystemDigests run_all(const Pinned& sys, Coverage& coverage) {
  SystemDigests out;
  for (std::size_t i = 0; i < kRuns; ++i) {
    util::Fnv1a trace;
    util::Fnv1a result;
    if (i == 0) {
      run_once(sys, nullptr, trace, result, coverage);
    } else {
      for (const std::uint64_t seed : kFaultSeeds) {
        const FaultSpec spec =
            FaultSpec::scenario(FaultSpec::scenario_names()[i - 1], seed);
        run_once(sys, &spec, trace, result, coverage);
      }
    }
    out[i] = RunDigests{trace.digest(), result.digest()};
  }
  return out;
}

void expect_digests(const SystemDigests& actual, const SystemDigests& pinned) {
  ASSERT_EQ(FaultSpec::scenario_names().size() + 1, kRuns);
  for (std::size_t i = 0; i < kRuns; ++i) {
    const std::string run =
        i == 0 ? "fault-free" : FaultSpec::scenario_names()[i - 1];
    char line[96];
    std::snprintf(line, sizeof line, "{0x%016" PRIx64 "ULL, 0x%016" PRIx64 "ULL}",
                  actual[i].trace, actual[i].result);
    EXPECT_EQ(actual[i].trace, pinned[i].trace) << run << " trace; actual " << line;
    EXPECT_EQ(actual[i].result, pinned[i].result) << run << " result; actual " << line;
  }
}

bool carries_both_gateway_directions(const model::Application& app,
                                     const arch::Platform& platform) {
  bool et_to_tt = false;
  bool tt_to_et = false;
  for (std::size_t mi = 0; mi < app.num_messages(); ++mi) {
    const util::MessageId m(static_cast<util::MessageId::underlying_type>(mi));
    const core::MessageRoute route = core::classify_route(app, platform, m);
    et_to_tt = et_to_tt || route == core::MessageRoute::EtToTt;
    tt_to_et = tt_to_et || route == core::MessageRoute::TtToEt;
  }
  return et_to_tt && tt_to_et;
}

TEST(SimulatorPins, PaperExample) {
  const gen::PaperExample ex = gen::make_paper_example();
  Coverage coverage;
  expect_digests(run_all(configure(ex.app, ex.platform), coverage),
                 SystemDigests{{{0xcaf43b7565913f7bULL, 0xdda10a04fed25381ULL},
                                {0x2b0c7a2025b84566ULL, 0xd807e04934e7b4d4ULL},
                                {0x8145470c4f6c8343ULL, 0x6da39f9127400896ULL},
                                {0x5488d7616f144f78ULL, 0x209ce8abb8e03694ULL},
                                {0xae5a02a67e816f25ULL, 0x48eb1324634d88e5ULL},
                                {0xe7973a8bb70d14aeULL, 0x163a07fb5a4d45bbULL},
                                {0x4fa4289ee56aef48ULL, 0xe544768f64bcc553ULL}}});
}

// The first replica of each validation grid dimension: seed 7142 (two
// nodes) and seed 7284 (four nodes), both with ET->TT and TT->ET traffic.
TEST(SimulatorPins, ValidationSystems) {
  const auto suite = gen::validation_suite(1);
  ASSERT_EQ(suite.size(), 2u);
  Coverage coverage;
  const std::array<SystemDigests, 2> pinned = {{
      {{{0x4614cbd65326e956ULL, 0x030732c4014a4848ULL},
        {0x7a2a6a0af5f65087ULL, 0x8a2a6c56c916efdaULL},
        {0x1d7b88273581343eULL, 0xd028050f98079e74ULL},
        {0x0c3a2081b37617c5ULL, 0xb768e2d2cb52618cULL},
        {0xbfed36ac761c77a5ULL, 0x7d385e464a86f14dULL},
        {0x7630474a6178a18eULL, 0x3576a3aee68d43cdULL},
        {0x4966f9a49c53754cULL, 0x78f644f1b3e11ed5ULL}}},
      {{{0xe23e15177349d85dULL, 0x92a911f92b2fbcd4ULL},
        {0xe3e27e8e3b29aaf7ULL, 0xc712705334d42a5bULL},
        {0x47756333fa728582ULL, 0xd9c4258ee97966e6ULL},
        {0x73e2f074aeac3a53ULL, 0x30c8aa1adad62475ULL},
        {0x6bd5d398c686501fULL, 0x79ad9e0161e4ddbdULL},
        {0x065a6b80396c841fULL, 0xd101630d4a5eadbfULL},
        {0x1db63d66b4fe5440ULL, 0xc522b407478bec35ULL}}},
  }};
  for (std::size_t i = 0; i < suite.size(); ++i) {
    SCOPED_TRACE("system seed " + std::to_string(suite[i].params.seed));
    const gen::GeneratedSystem generated = gen::generate(suite[i].params);
    ASSERT_TRUE(carries_both_gateway_directions(generated.app, generated.platform));
    expect_digests(run_all(configure(generated.app, generated.platform), coverage),
                   pinned[i]);
  }
  // Every fault stream and every event kind is exercised; retry budgets
  // are never exhausted at these rates.
  EXPECT_GT(coverage.faults.can_frames_dropped, 0);
  EXPECT_GT(coverage.faults.can_frames_delayed, 0);
  EXPECT_GT(coverage.faults.ttp_frames_dropped, 0);
  EXPECT_GT(coverage.faults.babble_seizures, 0);
  EXPECT_GT(coverage.faults.tt_jitter_events, 0);
  EXPECT_GT(coverage.faults.gateway_jitter_events, 0);
  EXPECT_GT(coverage.faults.exec_variations, 0);
  for (std::size_t k = 0; k < coverage.trace_kinds.size(); ++k) {
    EXPECT_GT(coverage.trace_kinds[k], 0u)
        << "trace kind " << to_string(static_cast<TraceKind>(k));
  }
}

}  // namespace
}  // namespace mcs::sim
