// Fault-injection unit tests on the paper's Figure 4 example: each fault
// category is enabled alone (with probability 1 where the effect must be
// certain) and its observable consequence asserted against the known
// nominal timeline; plus the determinism contract — identical seeds give
// bit-identical faulted runs — and the spec parser's error reporting.
#include "mcs/sim/fault.hpp"

#include <gtest/gtest.h>

#include <array>
#include <sstream>

#include "mcs/core/multi_cluster_scheduling.hpp"
#include "mcs/gen/paper_example.hpp"
#include "mcs/sim/simulator.hpp"

namespace mcs::sim {
namespace {

using core::McsOptions;
using core::McsResult;
using gen::Figure4Variant;
using gen::PaperExample;

struct Prepared {
  PaperExample ex;
  core::SystemConfig cfg;
  McsResult mcs;
};

Prepared prepare(Figure4Variant variant = Figure4Variant::B) {
  PaperExample ex = gen::make_paper_example();
  core::SystemConfig cfg = gen::make_figure4_config(ex, variant);
  McsResult mcs =
      core::multi_cluster_scheduling(ex.app, ex.platform, cfg, McsOptions{});
  return Prepared{std::move(ex), std::move(cfg), std::move(mcs)};
}

SimResult run(const Prepared& prep, const FaultSpec& faults,
              const SimOptions& options = {}) {
  return simulate(prep.ex.app, prep.ex.platform, prep.cfg, prep.mcs.schedule,
                  options, faults);
}

TEST(FaultInjection, NominalSpecReproducesUninjectedRun) {
  const auto prep = prepare();
  const SimResult plain =
      simulate(prep.ex.app, prep.ex.platform, prep.cfg, prep.mcs.schedule);
  FaultSpec nominal;
  EXPECT_FALSE(nominal.any());
  const SimResult injected = run(prep, nominal);

  EXPECT_EQ(injected.status, SimStatus::Completed);
  EXPECT_EQ(injected.faults.total(), 0);
  EXPECT_EQ(injected.process_start, plain.process_start);
  EXPECT_EQ(injected.process_completion, plain.process_completion);
  EXPECT_EQ(injected.message_delivery, plain.message_delivery);
  EXPECT_EQ(injected.graph_response, plain.graph_response);
  EXPECT_EQ(injected.max_out_can, plain.max_out_can);
  EXPECT_EQ(injected.max_out_ttp, plain.max_out_ttp);
}

TEST(FaultInjection, SameSeedReplaysBitIdentically) {
  const auto prep = prepare();
  const FaultSpec storm = FaultSpec::scenario("storm", 1234);
  const SimResult a = run(prep, storm);
  const SimResult b = run(prep, storm);

  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.process_start, b.process_start);
  EXPECT_EQ(a.process_completion, b.process_completion);
  EXPECT_EQ(a.message_delivery, b.message_delivery);
  EXPECT_EQ(a.graph_response, b.graph_response);
  EXPECT_EQ(a.lost_messages, b.lost_messages);
  EXPECT_EQ(a.deadline_misses.size(), b.deadline_misses.size());
  EXPECT_EQ(a.faults.total(), b.faults.total());
  EXPECT_EQ(a.faults.can_frames_dropped, b.faults.can_frames_dropped);
  EXPECT_EQ(a.faults.babble_seizures, b.faults.babble_seizures);
  EXPECT_EQ(a.faults.exec_variations, b.faults.exec_variations);
}

// Each of the five streams (exec, CAN, TTP, babble, clock) is seeded on
// its own from (seed, category), so the order in which the simulator
// happens to consult the categories cannot change any one category's
// draws.  This is what lets a stream be seeded lazily on its first draw.
TEST(FaultInjection, StreamsAreIndependentOfDrawOrder) {
  constexpr std::size_t kStreams = 5;
  constexpr int kDraws = 64;
  using Draws = std::array<std::vector<std::int64_t>, kStreams>;
  const auto draw = [](FaultInjector& inj, std::size_t stream, Draws& out) {
    auto& seq = out[stream];
    switch (stream) {
      case 0: seq.push_back(inj.exec_time(400)); break;
      case 1:
        seq.push_back(inj.corrupt_can_frame());
        seq.push_back(inj.can_extra_delay());
        break;
      case 2: seq.push_back(inj.ttp_round_losses()); break;
      case 3: seq.push_back(inj.babble()); break;
      default:
        seq.push_back(inj.tt_release_jitter());
        seq.push_back(inj.gateway_jitter());
        break;
    }
  };

  const FaultSpec storm = FaultSpec::scenario("storm", 99);
  FaultInjector round_robin(storm);
  FaultInjector stream_by_stream(storm);
  Draws a;
  Draws b;
  for (int i = 0; i < kDraws; ++i) {
    for (std::size_t s = 0; s < kStreams; ++s) draw(round_robin, s, a);
  }
  for (std::size_t s = kStreams; s-- > 0;) {
    for (int i = 0; i < kDraws; ++i) draw(stream_by_stream, s, b);
  }

  for (std::size_t s = 0; s < kStreams; ++s) EXPECT_EQ(a[s], b[s]) << "stream " << s;
  const FaultCounters& ca = round_robin.counters;
  const FaultCounters& cb = stream_by_stream.counters;
  EXPECT_EQ(ca.can_frames_dropped, cb.can_frames_dropped);
  EXPECT_EQ(ca.can_frames_delayed, cb.can_frames_delayed);
  EXPECT_EQ(ca.ttp_frames_dropped, cb.ttp_frames_dropped);
  EXPECT_EQ(ca.babble_seizures, cb.babble_seizures);
  EXPECT_EQ(ca.tt_jitter_events, cb.tt_jitter_events);
  EXPECT_EQ(ca.gateway_jitter_events, cb.gateway_jitter_events);
  EXPECT_EQ(ca.exec_variations, cb.exec_variations);
  EXPECT_EQ(ca.total(), cb.total());
  // The storm spec enables every category, so every stream really drew.
  EXPECT_GT(ca.can_frames_dropped, 0);
  EXPECT_GT(ca.babble_seizures, 0);
  EXPECT_GT(ca.exec_variations, 0);
}

TEST(FaultInjection, CanCorruptionExhaustsRetriesAndLosesMessage) {
  const auto prep = prepare();
  FaultSpec faults;
  faults.name = "can-dead";
  faults.can_drop_p = 1.0;  // every transmission corrupted
  faults.can_max_retries = 3;
  const SimResult sim = run(prep, faults);

  // CAN is the only path off the ETC cluster, so its death starves the
  // successors: the event queue drains with processes unfinished.
  EXPECT_FALSE(sim.completed);
  EXPECT_EQ(sim.status, SimStatus::Stalled);
  EXPECT_GT(sim.faults.can_frames_dropped, 0);
  EXPECT_GT(sim.faults.can_messages_lost, 0);
  EXPECT_FALSE(sim.lost_messages.empty());
  // The starved graph counts as an unbounded deadline miss.
  ASSERT_FALSE(sim.deadline_misses.empty());
  EXPECT_EQ(sim.deadline_misses.front().response, util::kTimeInfinity);
}

TEST(FaultInjection, CanDelayPushesDeliveriesButCompletes) {
  const auto prep = prepare();
  const SimResult nominal =
      simulate(prep.ex.app, prep.ex.platform, prep.cfg, prep.mcs.schedule);
  FaultSpec faults;
  faults.can_delay_p = 1.0;
  faults.can_delay_max = 50;
  const SimResult sim = run(prep, faults);

  EXPECT_EQ(sim.status, SimStatus::Completed);  // delays are bounded
  EXPECT_GT(sim.faults.can_frames_delayed, 0);
  EXPECT_GT(sim.message_delivery[prep.ex.m1.index()],
            nominal.message_delivery[prep.ex.m1.index()]);
}

TEST(FaultInjection, BabblingIdiotDelaysArbitration) {
  const auto prep = prepare();
  const SimResult nominal =
      simulate(prep.ex.app, prep.ex.platform, prep.cfg, prep.mcs.schedule);
  FaultSpec faults;
  faults.babble_p = 0.5;
  faults.babble_tx = 20;
  faults.seed = 5;
  const SimResult sim = run(prep, faults);

  EXPECT_GT(sim.faults.babble_seizures, 0);
  // Whatever still gets through arrives no earlier than nominally.
  const util::Time delivery = sim.message_delivery[prep.ex.m1.index()];
  if (delivery >= 0) {
    EXPECT_GE(delivery, nominal.message_delivery[prep.ex.m1.index()]);
  }
  // A babbler that always wins starves CAN for the whole run: with a
  // short seizure the retry loop spins through the event budget (the
  // deterministic "timeout"); the processes behind CAN never finish.
  FaultSpec always;
  always.babble_p = 1.0;
  always.babble_tx = 1;
  SimOptions capped;
  capped.max_events = 100;
  const SimResult starved = run(prep, always, capped);
  EXPECT_FALSE(starved.completed);
  EXPECT_EQ(starved.status, SimStatus::EventLimitExhausted);
}

TEST(FaultInjection, TtpCorruptionRetransmitsNextRoundThenLoses) {
  const auto prep = prepare();
  FaultSpec faults;
  faults.ttp_drop_p = 1.0;
  faults.ttp_max_retries = 2;
  const SimResult sim = run(prep, faults);

  EXPECT_GT(sim.faults.ttp_frames_dropped, 0);
  EXPECT_GT(sim.faults.ttp_messages_lost, 0);
  EXPECT_FALSE(sim.completed);
  EXPECT_EQ(sim.status, SimStatus::Stalled);
}

TEST(FaultInjection, ExecVariationOnlyShortensTheTimeline) {
  const auto prep = prepare();
  const SimResult nominal =
      simulate(prep.ex.app, prep.ex.platform, prep.cfg, prep.mcs.schedule);
  FaultSpec faults;
  faults.bcet_frac = 0.25;
  faults.seed = 3;
  const SimResult sim = run(prep, faults);

  EXPECT_EQ(sim.status, SimStatus::Completed);
  EXPECT_GT(sim.faults.exec_variations, 0);
  // Executions in [bcet, wcet] can only finish at or before the WCET
  // timeline on this contention-free example.
  for (std::size_t gi = 0; gi < prep.ex.app.num_graphs(); ++gi) {
    EXPECT_LE(sim.graph_response[gi], nominal.graph_response[gi]);
  }
}

TEST(FaultInjection, ClockJitterPerturbsReleasesAndTransfers) {
  const auto prep = prepare();
  const SimResult nominal =
      simulate(prep.ex.app, prep.ex.platform, prep.cfg, prep.mcs.schedule);
  FaultSpec faults;
  faults.tt_jitter_max = 15;
  faults.gateway_jitter_max = 15;
  faults.seed = 11;
  const SimResult sim = run(prep, faults);

  EXPECT_GT(sim.faults.tt_jitter_events + sim.faults.gateway_jitter_events, 0);
  EXPECT_GE(sim.process_start[prep.ex.p1.index()],
            nominal.process_start[prep.ex.p1.index()]);
}

TEST(SimStatuses, EventBudgetAndHorizonAreDistinguished) {
  const auto prep = prepare();
  SimOptions one_event;
  one_event.max_events = 1;
  const SimResult capped = simulate(prep.ex.app, prep.ex.platform, prep.cfg,
                                    prep.mcs.schedule, one_event);
  EXPECT_FALSE(capped.completed);
  EXPECT_EQ(capped.status, SimStatus::EventLimitExhausted);

  SimOptions tiny_horizon;
  tiny_horizon.horizon = 1;
  const SimResult cut = simulate(prep.ex.app, prep.ex.platform, prep.cfg,
                                 prep.mcs.schedule, tiny_horizon);
  EXPECT_FALSE(cut.completed);
  EXPECT_EQ(cut.status, SimStatus::HorizonExhausted);

  EXPECT_STREQ(to_string(SimStatus::Completed), "completed");
  EXPECT_STREQ(to_string(SimStatus::EventLimitExhausted), "event-limit");
  EXPECT_STREQ(to_string(SimStatus::HorizonExhausted), "horizon");
  EXPECT_STREQ(to_string(SimStatus::Stalled), "stalled");
}

TEST(CheckBounds, FlagsObservationsAboveTheAnalyticBound) {
  const auto prep = prepare();
  SimResult sim =
      simulate(prep.ex.app, prep.ex.platform, prep.cfg, prep.mcs.schedule);
  ASSERT_TRUE(sim.completed);

  // The genuine run is sound: nothing to report.
  EXPECT_EQ(check_bounds(prep.ex.app, prep.mcs.analysis, sim), 0u);
  EXPECT_TRUE(sim.bound_violations.empty());

  // Push one observation past its bound: exactly one violation appears,
  // naming the activity with both sides of the comparison.
  sim.process_completion[prep.ex.p2.index()] += 1'000'000;
  EXPECT_EQ(check_bounds(prep.ex.app, prep.mcs.analysis, sim), 1u);
  ASSERT_EQ(sim.bound_violations.size(), 1u);
  EXPECT_NE(sim.bound_violations[0].activity.find("process"), std::string::npos);
  EXPECT_GT(sim.bound_violations[0].simulated, sim.bound_violations[0].bound);
}

TEST(FaultSpecParser, ParsesEveryKey) {
  std::istringstream in(R"(# lossy bus scenario
name = bus-storm
seed = 7
can_drop_p = 0.05          # comments allowed
can_max_retries = 8
can_delay_p = 0.1
can_delay_max = 40
ttp_drop_p = 0.02
ttp_max_retries = 4
babble_p = 0.2
babble_tx = 100
tt_jitter_max = 10
gateway_jitter_max = 12
bcet_frac = 0.5
)");
  const FaultSpec spec = parse_fault_spec(in);
  EXPECT_EQ(spec.name, "bus-storm");
  EXPECT_EQ(spec.seed, 7u);
  EXPECT_DOUBLE_EQ(spec.can_drop_p, 0.05);
  EXPECT_EQ(spec.can_max_retries, 8);
  EXPECT_DOUBLE_EQ(spec.can_delay_p, 0.1);
  EXPECT_EQ(spec.can_delay_max, 40);
  EXPECT_DOUBLE_EQ(spec.ttp_drop_p, 0.02);
  EXPECT_EQ(spec.ttp_max_retries, 4);
  EXPECT_DOUBLE_EQ(spec.babble_p, 0.2);
  EXPECT_EQ(spec.babble_tx, 100);
  EXPECT_EQ(spec.tt_jitter_max, 10);
  EXPECT_EQ(spec.gateway_jitter_max, 12);
  EXPECT_DOUBLE_EQ(spec.bcet_frac, 0.5);
  EXPECT_TRUE(spec.any());
}

TEST(FaultSpecParser, RejectsMalformedInputWithLineNumbers) {
  const auto message_of = [](const std::string& text) {
    std::istringstream in(text);
    try {
      static_cast<void>(parse_fault_spec(in));
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("<no error>");
  };

  // Unknown keys, out-of-range probabilities and garbage values all name
  // the offending line.
  EXPECT_NE(message_of("name = x\nnonsense = 1\n").find("line 2"),
            std::string::npos);
  EXPECT_NE(message_of("can_drop_p = 2.0\n").find("line 1"), std::string::npos);
  EXPECT_NE(message_of("seed = banana\n").find("line 1"), std::string::npos);
  EXPECT_NE(message_of("just words\n").find("line 1"), std::string::npos);
  // A file with no recognizable entries is rejected, not silently
  // defaulted (the wrong-file guard).
  EXPECT_NE(message_of("# only a comment\n").find("no 'key = value'"),
            std::string::npos);
}

TEST(FaultScenarios, LibraryCoversEveryCategory) {
  EXPECT_FALSE(FaultSpec::scenario_names().empty());
  for (const std::string& name : FaultSpec::scenario_names()) {
    const FaultSpec spec = FaultSpec::scenario(name, 42);
    EXPECT_EQ(spec.name, name);
    EXPECT_EQ(spec.seed, 42u);
    EXPECT_TRUE(spec.any()) << name;
  }
  EXPECT_THROW(static_cast<void>(FaultSpec::scenario("no-such", 1)),
               std::invalid_argument);
  // Out-of-range specs are rejected at injector construction, so a typo'd
  // probability cannot silently skew a campaign.
  FaultSpec bad;
  bad.can_drop_p = 1.5;
  EXPECT_THROW(FaultInjector{bad}, std::invalid_argument);
}

}  // namespace
}  // namespace mcs::sim
