// MultiClusterScheduling exports its AnalysisResult once per run, from the
// state its final iteration left (DESIGN.md §1).  The system below is
// picked so that the buffer bounds and graph responses of MCS iteration 0
// differ from the fixed point's: a run that exported an earlier
// iteration's state would report them, and these tests would fail.
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "mcs/core/moves.hpp"
#include "mcs/core/multi_cluster_scheduling.hpp"
#include "mcs/core/response_time_analysis.hpp"
#include "mcs/gen/generator.hpp"

namespace mcs::core {
namespace {

gen::GeneratorParams small_system(std::uint64_t seed) {
  gen::GeneratorParams p;
  p.tt_nodes = 2;
  p.et_nodes = 2;
  p.processes_per_node = 8;
  p.processes_per_graph = 16;
  p.seed = seed;
  p.wcet_min = 50;
  p.wcet_max = 400;
  // Scatter mapping: every edge likely remote, so ET->TT deliveries push
  // TT processes, and with them the TT->ET traffic, later.
  p.locality_mapping = false;
  return p;
}

/// The analysis of the final schedule, run cold: TT offsets from the
/// schedule, everything else from the initial candidate.
AnalysisResult final_iteration(const gen::GeneratedSystem& sys, const McsResult& mcs,
                               const McsOptions& options) {
  SystemConfig cfg =
      Candidate::initial(sys.app, sys.platform).to_config(sys.app);
  for (std::size_t pi = 0; pi < sys.app.num_processes(); ++pi) {
    const util::ProcessId p(static_cast<util::ProcessId::underlying_type>(pi));
    if (sys.platform.is_tt(sys.app.process(p).node)) {
      cfg.set_process_offset(p, mcs.schedule.process_start[pi]);
    }
  }
  AnalysisInput input;
  input.app = &sys.app;
  input.platform = &sys.platform;
  input.config = &cfg;
  input.ttc_schedule = &mcs.schedule;
  input.options = options.analysis;
  return response_time_analysis(input);
}

McsResult run_mcs(const gen::GeneratedSystem& sys, const McsOptions& options) {
  SystemConfig cfg = Candidate::initial(sys.app, sys.platform).to_config(sys.app);
  return multi_cluster_scheduling(sys.app, sys.platform, cfg, options);
}

/// The first small system whose iteration-0 buffer bounds and graph
/// responses both differ from its fixed point's.
std::optional<std::uint64_t> find_moving_system(const McsOptions& options) {
  McsOptions first_only = options;
  first_only.max_iterations = 1;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const auto sys = gen::generate(small_system(seed));
    const McsResult full = run_mcs(sys, options);
    if (full.iterations < 2) continue;
    const McsResult first = run_mcs(sys, first_only);
    if (first.analysis.buffers.total() != full.analysis.buffers.total() &&
        first.analysis.graph_response != full.analysis.graph_response) {
      return seed;
    }
  }
  return std::nullopt;
}

TEST(ExportOnce, ResultIsTheFinalIterationsAnalysis) {
  const McsOptions options;
  const std::optional<std::uint64_t> seed = find_moving_system(options);
  ASSERT_TRUE(seed.has_value()) << "no system moves between iteration 0 and the fixed point";
  const auto sys = gen::generate(small_system(*seed));

  McsOptions first_only = options;
  first_only.max_iterations = 1;
  const McsResult first = run_mcs(sys, first_only);
  const McsResult full = run_mcs(sys, options);
  ASSERT_GE(full.iterations, 2);
  const AnalysisResult cold = final_iteration(sys, full, options);

  std::string why;
  EXPECT_TRUE(bit_identical(full.analysis, cold, &why)) << "seed " << *seed << ": " << why;
  EXPECT_EQ(full.analysis.buffers.total(), cold.buffers.total());
  EXPECT_EQ(full.analysis.graph_response, cold.graph_response);
  EXPECT_NE(first.analysis.buffers.total(), cold.buffers.total());
  EXPECT_NE(first.analysis.graph_response, cold.graph_response);
}

TEST(ExportOnce, ReplayingRunsExportTheFinalIterationToo) {
  const McsOptions options;
  const std::optional<std::uint64_t> seed = find_moving_system(options);
  ASSERT_TRUE(seed.has_value());
  const auto sys = gen::generate(small_system(*seed));
  const McsResult cold_run = run_mcs(sys, options);
  const AnalysisResult cold = final_iteration(sys, cold_run, options);

  // The replaying path elides the provably repeated last iteration, and the
  // second run replays the first run's records.
  AnalysisWorkspace ws(sys.app, sys.platform);
  ws.set_delta_mode(DeltaMode::On);
  for (int run = 0; run < 2; ++run) {
    SystemConfig cfg = Candidate::initial(sys.app, sys.platform).to_config(sys.app);
    const McsResult replayed =
        multi_cluster_scheduling(sys.app, sys.platform, cfg,
                                 sched::ScheduleConstraints::none(sys.app), options, ws);
    std::string why;
    EXPECT_TRUE(bit_identical(replayed.analysis, cold, &why)) << "run " << run << ": " << why;
  }
  EXPECT_GT(ws.delta_stats().components_skipped, 0u);
}

}  // namespace
}  // namespace mcs::core
