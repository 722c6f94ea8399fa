// Differential-testing oracle for the component records (DESIGN.md §2
// "Component records").  Under DeltaMode::Check every
// MultiClusterScheduling run through a workspace executes BOTH the leg
// that replays records earlier runs left and the plain cold algorithm,
// and throws std::logic_error unless the two McsResults are bit-identical
// (including published offsets).  The tests below drive long random move
// walks — the same neighborhoods SA and the hill climbers explore —
// through Check mode, so every evaluation after every move (accepted and
// rejected alike) is a replay-vs-cold comparison.
//
// Every move kind replays on a warm workspace: priority swaps, and also
// the gateway/TTC-schedule moves (slot resizes, slot swaps, TTC shifts),
// whose new schedule and drain calendar each record compares as part of
// its entry.  Only a change of the analysis options starts a new record
// generation (a fallback).  The walks tally the move kinds they evaluated
// and the stats assert that records both replayed and were recomputed —
// an oracle that silently never takes the path under test proves nothing.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "mcs/core/hopa.hpp"
#include "mcs/core/moves.hpp"
#include "mcs/core/multi_cluster_scheduling.hpp"
#include "mcs/core/simulated_annealing.hpp"
#include "mcs/gen/generator.hpp"
#include "mcs/gen/paper_example.hpp"
#include "mcs/gen/suites.hpp"
#include "mcs/util/rng.hpp"

namespace mcs::core {
namespace {

gen::GeneratorParams small_system(std::uint64_t seed, std::size_t tt = 2,
                                  std::size_t et = 2) {
  gen::GeneratorParams p;
  p.tt_nodes = tt;
  p.et_nodes = et;
  p.processes_per_node = 8;
  p.processes_per_graph = 16;
  p.seed = seed;
  p.wcet_min = 50;
  p.wcet_max = 400;
  return p;
}

/// Evaluated moves per Move alternative (variant index).
using MoveTally = std::array<std::uint64_t, std::variant_size_v<Move>>;

/// SA-shaped random walk: every neighbor — kept or discarded — goes
/// through evaluate, i.e. through one Check-mode MCS run.  A delta/full
/// divergence anywhere in the walk throws std::logic_error and fails the
/// test; the return value is the number of checked evaluations.
/// `tally` counts the evaluated moves by kind.
std::uint64_t random_walk(const MoveContext& ctx, std::uint64_t seed,
                          std::uint64_t target_evaluations, MoveTally& tally) {
  util::Rng rng(seed);
  Candidate current = Candidate::initial(ctx.app(), ctx.platform());
  Evaluation current_eval = ctx.evaluate(current);
  std::uint64_t evaluations = 1;
  // Bounded by attempts, not evaluations, so a pathological neighborhood
  // of all-no-op moves cannot loop forever.
  for (std::uint64_t i = 0;
       i < 4 * target_evaluations && evaluations < target_evaluations; ++i) {
    const Move move = ctx.random_move(current, current_eval, rng);
    Candidate neighbor = current;
    if (!ctx.apply(move, neighbor)) continue;
    Evaluation eval = ctx.evaluate(neighbor);
    ++evaluations;
    ++tally[move.index()];
    // Accept improvements plus a random fraction of regressions, like SA
    // at moderate temperature; rejected neighbors were still checked.
    if (eval.delta.delta() <= current_eval.delta.delta() || rng.bernoulli(0.3)) {
      current = std::move(neighbor);
      current_eval = std::move(eval);
    }
  }
  return evaluations;
}

TEST(DeltaOracle, RandomWalksAcrossSuitesBitIdenticalToFull) {
  struct SystemUnderTest {
    model::Application app;
    arch::Platform platform;
  };
  std::vector<SystemUnderTest> systems;
  {
    auto ex = gen::make_paper_example();
    systems.push_back({std::move(ex.app), std::move(ex.platform)});
  }
  for (const auto& point : gen::tiny_suite(1)) {
    auto sys = gen::generate(point.params);
    systems.push_back({std::move(sys.app), std::move(sys.platform)});
  }
  for (const auto& point : gen::validation_suite(1)) {
    auto sys = gen::generate(point.params);
    systems.push_back({std::move(sys.app), std::move(sys.platform)});
  }
  for (const std::uint64_t seed : {11u, 44u}) {
    auto sys = gen::generate(small_system(seed));
    systems.push_back({std::move(sys.app), std::move(sys.platform)});
  }

  // The acceptance bar for the whole oracle: at least 10k delta-vs-full
  // comparisons per CI run, zero mismatches.  Split evenly across systems.
  const std::uint64_t evals_per_system = 10'000 / systems.size() + 1;

  std::uint64_t checked = 0, mismatches = 0, delta_runs = 0, fallbacks = 0;
  std::uint64_t skipped = 0, recomputed = 0, iteration_skips = 0;
  MoveTally tally{};
  for (std::size_t i = 0; i < systems.size(); ++i) {
    const MoveContext ctx(systems[i].app, systems[i].platform, McsOptions{});
    ctx.workspace().set_delta_mode(DeltaMode::Check);
    ASSERT_NO_THROW(random_walk(ctx, 40'000 + i, evals_per_system, tally))
        << "delta/full mismatch on system " << i;
    const DeltaStats& stats = ctx.delta_stats();
    checked += stats.checked;
    mismatches += stats.mismatches;
    delta_runs += stats.delta_runs;
    fallbacks += stats.fallbacks;
    skipped += stats.components_skipped;
    recomputed += stats.components_recomputed;
    iteration_skips += stats.iteration_skips;
  }

  EXPECT_EQ(mismatches, 0u);
  EXPECT_GE(checked, 10'000u);
  // Every Check-mode run replays; the walks never change the analysis
  // options, so no record generation is bumped.
  EXPECT_EQ(fallbacks, 0u);
  EXPECT_EQ(delta_runs, checked);
  // ...and the replays covered every move kind, TDMA and shift moves too.
  for (std::size_t kind = 0; kind < tally.size(); ++kind) {
    EXPECT_GE(tally[kind], 1u) << "move kind " << kind << " never evaluated";
  }
  // The runs both replayed and recomputed pass components, so every
  // record compare was exercised on both sides.
  EXPECT_GT(skipped, 0u);
  EXPECT_GT(recomputed, 0u);
  // Later MCS iterations replayed the records earlier ones left, each
  // replay compared against the cold leg too.
  EXPECT_GT(iteration_skips, 0u);
}

TEST(DeltaOracle, GlobalMovesReplayAndOptionChangesFallBack) {
  const auto sys = gen::generate(small_system(7));
  const MoveContext ctx(sys.app, sys.platform, McsOptions{});
  ctx.workspace().set_delta_mode(DeltaMode::Check);

  const Candidate base = Candidate::initial(sys.app, sys.platform);
  (void)ctx.evaluate(base);

  // Every TTC/gateway-level move replays against the warm base: the new
  // schedule reaches the passes through their compared inputs.
  ASSERT_GE(base.tdma.num_slots(), 2u);
  ASSERT_FALSE(ctx.tt_processes().empty());
  ASSERT_FALSE(ctx.tt_messages().empty());
  const std::vector<Move> global = {
      SwapSlotsMove{0, base.tdma.num_slots() - 1},
      ResizeSlotMove{0, base.tdma.slot(0).length +
                            base.tdma.params().time_per_byte * 8},
      ShiftProcessMove{ctx.tt_processes().front(), 64},
      ShiftMessageMove{ctx.tt_messages().front(), 64},
  };
  for (const Move& move : global) {
    Candidate c = base;
    ASSERT_TRUE(ctx.apply(move, c)) << to_string(move);
    const DeltaStats before = ctx.delta_stats();
    (void)ctx.evaluate(c);
    EXPECT_EQ(ctx.delta_stats().delta_runs, before.delta_runs + 1) << to_string(move);
    EXPECT_EQ(ctx.delta_stats().fallbacks, before.fallbacks) << to_string(move);
  }
  EXPECT_EQ(ctx.delta_stats().mismatches, 0u);

  // A change of the analysis options starts a new record generation: one
  // fallback per switch, and no record of another generation replays.
  SystemConfig cfg = base.to_config(sys.app);
  McsOptions options = ctx.mcs_options();
  const auto switch_to = [&](const McsOptions& next, const char* what) {
    SCOPED_TRACE(what);
    const std::uint64_t fallbacks_before = ctx.delta_stats().fallbacks;
    EXPECT_NO_THROW((void)multi_cluster_scheduling(sys.app, sys.platform, cfg,
                                                   base.pins, next, ctx.workspace()));
    EXPECT_EQ(ctx.delta_stats().fallbacks, fallbacks_before + 1);
    EXPECT_EQ(ctx.delta_stats().mismatches, 0u);
  };
  options.analysis.offset_pruning = false;
  switch_to(options, "offset_pruning = false");
  options.analysis = AnalysisOptions{};
  options.analysis.ttp_queue_model = TtpQueueModel::PaperFormula;
  switch_to(options, "ttp_queue_model = PaperFormula");
  switch_to(ctx.mcs_options(), "default options");

  // The paper example's gateway-slot resize moves the OutTTP drain
  // calendar under ET->TT traffic.  The gateway slot closes the round and
  // grows by one round length, so the round doubles and the TT slot keeps
  // its first-round timing: the first pass of the replay sees the base's
  // ET->TT state, and only the calendar rule makes pass 4 recompute.
  const auto ex = gen::make_paper_example();
  const MoveContext paper(ex.app, ex.platform, McsOptions{});
  paper.workspace().set_delta_mode(DeltaMode::Check);
  ASSERT_FALSE(paper.workspace().et_to_tt().empty());
  const Candidate paper_base = Candidate::initial(ex.app, ex.platform);
  const Evaluation paper_eval = paper.evaluate(paper_base);
  const std::size_t sg = paper_base.tdma.slot_of(ex.platform.gateway());
  ASSERT_EQ(sg + 1, paper_base.tdma.num_slots());
  Candidate resized = paper_base;
  ASSERT_TRUE(paper.apply(
      ResizeSlotMove{sg, paper_base.tdma.slot(sg).length +
                             paper_base.tdma.round_length()},
      resized));
  const DeltaStats before = paper.delta_stats();
  const Evaluation resized_eval = paper.evaluate(resized);
  EXPECT_EQ(paper.delta_stats().delta_runs, before.delta_runs + 1);
  EXPECT_EQ(paper.delta_stats().fallbacks, before.fallbacks);
  EXPECT_EQ(paper.delta_stats().mismatches, 0u);
  // The resize really reached the drain: some ET->TT delivery moved.
  bool delivery_moved = false;
  for (const util::MessageId m : paper.workspace().et_to_tt()) {
    delivery_moved = delivery_moved ||
                     resized_eval.mcs.analysis.message_delivery[m.index()] !=
                         paper_eval.mcs.analysis.message_delivery[m.index()];
  }
  EXPECT_TRUE(delivery_moved);
}

// A workspace's first DeltaMode::On run has no earlier run's record to
// replay: it equals the seed path (DeltaMode::Off) bit for bit, published
// offsets included, and replays components only from the records its own
// earlier MCS iterations left.  Its second run on the same candidate
// replays the first run's records.
TEST(DeltaFirstRun, FirstRunEqualsOffSecondReplays) {
  std::vector<gen::GeneratedSystem> systems;
  systems.push_back(gen::generate(gen::tiny_suite(1).front().params));
  systems.push_back(gen::generate(gen::validation_suite(1).front().params));
  systems.push_back(gen::generate(gen::figure9c_suite(1).front().params));
  for (std::size_t i = 0; i < systems.size(); ++i) {
    SCOPED_TRACE("system " + std::to_string(i));
    const model::Application& app = systems[i].app;
    const arch::Platform& platform = systems[i].platform;
    Candidate candidate = Candidate::initial(app, platform);
    const HopaResult dm = initial_deadline_monotonic(app, platform);
    candidate.process_priorities = dm.process_priorities;
    candidate.message_priorities = dm.message_priorities;

    AnalysisWorkspace off(app, platform);
    off.set_delta_mode(DeltaMode::Off);
    SystemConfig off_config = candidate.to_config(app);
    const McsResult expected = multi_cluster_scheduling(
        app, platform, off_config, candidate.pins, McsOptions{}, off);

    AnalysisWorkspace ws(app, platform);
    ws.set_delta_mode(DeltaMode::On);
    const auto run = [&](int n) {
      SCOPED_TRACE("run " + std::to_string(n));
      SystemConfig config = candidate.to_config(app);
      const McsResult result = multi_cluster_scheduling(
          app, platform, config, candidate.pins, McsOptions{}, ws);
      std::string why;
      EXPECT_TRUE(bit_identical(result, expected, &why)) << why;
      EXPECT_EQ(result.iterations, expected.iterations);
      EXPECT_EQ(config.process_offsets(), off_config.process_offsets());
      EXPECT_EQ(config.message_offsets(), off_config.message_offsets());
    };

    run(1);
    EXPECT_EQ(ws.delta_stats().delta_runs, 1u);
    EXPECT_EQ(ws.delta_stats().full_runs, 0u);
    EXPECT_EQ(ws.delta_stats().components_skipped, 0u);
    EXPECT_EQ(ws.delta_stats().fallbacks, 0u);
    // The tiny-suite system's fixed point takes three MCS iterations: its
    // later iterations replay components from the records its earlier
    // ones left, and still equal the Off run above.
    if (i == 0) {
      ASSERT_GE(expected.iterations, 2);
      EXPECT_GT(ws.delta_stats().iteration_skips, 0u);
    }
    EXPECT_EQ(off.delta_stats().iteration_skips, 0u);

    run(2);
    EXPECT_EQ(ws.delta_stats().delta_runs, 2u);
    EXPECT_EQ(ws.delta_stats().fallbacks, 0u);
    EXPECT_GT(ws.delta_stats().components_skipped, 0u);
  }
}

// Passes at or past kMaxStoredPasses share their iteration's last record
// slot.  On node Y, A1's response sets A2's jitter, A2 preempts B2, and
// B2's pending span preempts A1 again: the loop creeps up for more than
// kMaxStoredPasses passes before it converges.  Node X's lone source
// process settles after pass 0 and is skipped intra-run from then on, the
// shared-slot passes included.  Check mode compares every run, the
// replaying second one too, against a cold run.
TEST(DeltaOracle, PassesPastTheStoreShareTheLastSlot) {
  arch::Platform platform(arch::TtpBusParams{1, 0}, arch::CanBusParams::linear(10, 0));
  const util::NodeId t = platform.add_tt_node("T");
  const util::NodeId x = platform.add_et_node("X");
  const util::NodeId y = platform.add_et_node("Y");
  platform.add_gateway("G");
  platform.set_gateway_transfer({5, 10});
  model::Application app;
  const util::GraphId g0 = app.add_graph("G0", 1000, 1000);
  const util::GraphId g1 = app.add_graph("G1", 230, 230);
  const util::GraphId g2 = app.add_graph("G2", 140, 140);
  (void)app.add_process(g0, "T0", t, 10);
  const util::ProcessId a1 = app.add_process(g1, "A1", y, 107);
  const util::ProcessId a2 = app.add_process(g1, "A2", y, 86);
  const util::ProcessId b1 = app.add_process(g2, "B1", x, 51);
  const util::ProcessId b2 = app.add_process(g2, "B2", y, 63);
  (void)app.add_message(a1, a2, 4, "ma");
  (void)app.add_message(b1, b2, 4, "mb");

  Candidate candidate = Candidate::initial(app, platform);
  candidate.process_priorities[a1.index()] = 6;
  candidate.process_priorities[a2.index()] = 1;
  candidate.process_priorities[b1.index()] = 6;
  candidate.process_priorities[b2.index()] = 2;

  AnalysisWorkspace ws(app, platform);
  ws.set_delta_mode(DeltaMode::Check);
  std::vector<AnalysisWorkspace::TraceRecord> trace;
  ws.set_trace_sink(&trace);
  for (int run = 0; run < 2; ++run) {
    SystemConfig config = candidate.to_config(app);
    EXPECT_NO_THROW((void)multi_cluster_scheduling(app, platform, config,
                                                   candidate.pins, McsOptions{}, ws))
        << "run " << run;
  }
  ws.set_trace_sink(nullptr);

  int passes = 0;
  for (const AnalysisWorkspace::TraceRecord& record : trace) {
    passes = std::max(passes, record.pass + 1);
  }
  EXPECT_GT(passes, static_cast<int>(AnalysisWorkspace::kMaxStoredPasses));
  EXPECT_EQ(ws.delta_stats().checked, 2u);
  EXPECT_EQ(ws.delta_stats().mismatches, 0u);
  EXPECT_GT(ws.delta_stats().intra_skips, 0u);
  EXPECT_GT(ws.delta_stats().components_skipped, 0u);
}

// End-to-end: the real optimizers under Check mode.  SA stresses the
// accept/reject interleaving on one workspace; HOPA stresses repeated
// priority reassignment rounds over a fixed TDMA round (every round after
// the first is a pure delta run).
TEST(DeltaOracle, OptimizersRunCleanUnderCheckMode) {
  const auto sys = gen::generate(small_system(33));
  {
    const MoveContext ctx(sys.app, sys.platform, McsOptions{});
    ctx.workspace().set_delta_mode(DeltaMode::Check);
    SaOptions options;
    options.seed = 5;
    options.max_evaluations = 300;
    const Candidate start = Candidate::initial(sys.app, sys.platform);
    ASSERT_NO_THROW((void)simulated_annealing(ctx, start, options));
    EXPECT_EQ(ctx.delta_stats().mismatches, 0u);
    EXPECT_GT(ctx.delta_stats().checked, 0u);
  }
  {
    AnalysisWorkspace ws(sys.app, sys.platform);
    ws.set_delta_mode(DeltaMode::Check);
    const arch::TdmaRound tdma =
        Candidate::initial(sys.app, sys.platform).tdma;
    ASSERT_NO_THROW((void)hopa_priorities(sys.app, sys.platform, tdma, ws));
    EXPECT_EQ(ws.delta_stats().mismatches, 0u);
    EXPECT_GT(ws.delta_stats().delta_runs, 0u);
  }
}

}  // namespace
}  // namespace mcs::core
