// Randomized cross-validation: on generated systems with synthesized
// configurations, every analysis bound must dominate the corresponding
// deterministic-WCET simulation observation, and the offset-pruned
// analysis must never exceed the conservative one.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "mcs/core/hopa.hpp"
#include "mcs/core/moves.hpp"
#include "mcs/core/straightforward.hpp"
#include "mcs/gen/generator.hpp"
#include "mcs/sim/simulator.hpp"

namespace mcs {
namespace {

struct CrossValidationParam {
  std::uint64_t seed;
  bool offset_pruning;
  core::TtpQueueModel ttp_model;

  friend std::ostream& operator<<(std::ostream& os, const CrossValidationParam& p) {
    return os << "seed" << p.seed << (p.offset_pruning ? "_pruned" : "_conservative")
              << (p.ttp_model == core::TtpQueueModel::Exact ? "_exact" : "_paper");
  }
};

/// One check on one grid point; the grid is registered below.
class CrossValidation : public ::testing::Test {
public:
  explicit CrossValidation(CrossValidationParam param) : param_(param) {}

protected:
  CrossValidationParam param_;
};

gen::GeneratorParams small_system(std::uint64_t seed) {
  gen::GeneratorParams p;
  p.tt_nodes = 2;
  p.et_nodes = 2;
  p.processes_per_node = 8;
  p.processes_per_graph = 16;
  p.seed = seed;
  // Lighter load so a fair share of random instances is schedulable.
  p.wcet_min = 50;
  p.wcet_max = 400;
  return p;
}

class AnalysisDominatesSimulation : public CrossValidation {
public:
  using CrossValidation::CrossValidation;
  void TestBody() override;
};

void AnalysisDominatesSimulation::TestBody() {
  const auto sys = gen::generate(small_system(param_.seed));

  core::McsOptions mcs_options;
  mcs_options.analysis.offset_pruning = param_.offset_pruning;
  mcs_options.analysis.ttp_queue_model = param_.ttp_model;

  // Straightforward configuration (deadline-monotonic priorities).
  const auto dm = core::initial_deadline_monotonic(sys.app, sys.platform);
  core::Candidate candidate = core::Candidate::initial(sys.app, sys.platform);
  candidate.process_priorities = dm.process_priorities;
  candidate.message_priorities = dm.message_priorities;

  core::SystemConfig cfg = candidate.to_config(sys.app);
  const auto mcs = core::multi_cluster_scheduling(sys.app, sys.platform, cfg,
                                                  mcs_options);
  if (!mcs.analysis.converged) {
    GTEST_SKIP() << "analysis did not converge for this instance";
  }

  const sim::SimResult simulated =
      sim::simulate(sys.app, sys.platform, cfg, mcs.schedule);
  if (!simulated.violations.empty() || !simulated.completed) {
    // A non-converged fixed point can produce inconsistent tables; the
    // analysis only guarantees bounds for consistent configurations.
    GTEST_SKIP() << "simulation reported violations: "
                 << simulated.violations.size();
  }

  const auto& a = mcs.analysis;
  for (std::size_t pi = 0; pi < sys.app.num_processes(); ++pi) {
    EXPECT_LE(simulated.process_completion[pi],
              a.process_offsets[pi] + a.process_response[pi])
        << "process " << sys.app.processes()[pi].name;
  }
  for (std::size_t mi = 0; mi < sys.app.num_messages(); ++mi) {
    EXPECT_LE(simulated.message_delivery[mi], a.message_delivery[mi])
        << "message " << sys.app.messages()[mi].name;
  }
  for (std::size_t gi = 0; gi < sys.app.num_graphs(); ++gi) {
    EXPECT_LE(simulated.graph_response[gi], a.graph_response[gi]);
  }
  EXPECT_LE(simulated.max_out_can, a.buffers.out_can);
  EXPECT_LE(simulated.max_out_ttp, a.buffers.out_ttp);
  for (const auto& [node, bytes] : simulated.max_out_node) {
    ASSERT_TRUE(a.buffers.out_node.count(node));
    EXPECT_LE(bytes, a.buffers.out_node.at(node));
  }
}

/// Compares both pruning settings itself, so it runs once per (seed, TTP
/// model): on the pruned half of the grid.
class PrunedNeverExceedsConservative : public CrossValidation {
public:
  using CrossValidation::CrossValidation;
  void TestBody() override;
};

void PrunedNeverExceedsConservative::TestBody() {
  const auto sys = gen::generate(small_system(param_.seed));

  const auto dm = core::initial_deadline_monotonic(sys.app, sys.platform);
  core::Candidate candidate = core::Candidate::initial(sys.app, sys.platform);
  candidate.process_priorities = dm.process_priorities;
  candidate.message_priorities = dm.message_priorities;

  core::McsOptions pruned_opt;
  pruned_opt.analysis.offset_pruning = true;
  pruned_opt.analysis.ttp_queue_model = param_.ttp_model;
  core::McsOptions cons_opt = pruned_opt;
  cons_opt.analysis.offset_pruning = false;

  core::SystemConfig cfg_p = candidate.to_config(sys.app);
  core::SystemConfig cfg_c = candidate.to_config(sys.app);
  const auto pruned =
      core::multi_cluster_scheduling(sys.app, sys.platform, cfg_p, pruned_opt);
  const auto conservative =
      core::multi_cluster_scheduling(sys.app, sys.platform, cfg_c, cons_opt);
  if (!pruned.analysis.converged || !conservative.analysis.converged) {
    GTEST_SKIP() << "analysis did not converge";
  }
  for (std::size_t gi = 0; gi < sys.app.num_graphs(); ++gi) {
    EXPECT_LE(pruned.analysis.graph_response[gi],
              conservative.analysis.graph_response[gi]);
  }
}

/// Registers AnalysisDominatesSimulation on every (seed, pruning, TTP
/// model) and PrunedNeverExceedsConservative on every (seed, TTP model),
/// under the names a value-parameterized suite prints:
/// RandomSystems/CrossValidation.<check>/<point>.
template <typename Check>
void register_check(const char* check, const CrossValidationParam& param) {
  std::ostringstream point;
  point << param;
  ::testing::RegisterTest("RandomSystems/CrossValidation",
                          (std::string(check) + "/" + point.str()).c_str(), nullptr,
                          point.str().c_str(), __FILE__, __LINE__,
                          [param]() -> CrossValidation* { return new Check(param); });
}

[[maybe_unused]] const bool kGridRegistered = [] {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    for (const bool pruning : {true, false}) {
      for (const auto model :
           {core::TtpQueueModel::Exact, core::TtpQueueModel::PaperFormula}) {
        const CrossValidationParam param{seed, pruning, model};
        register_check<AnalysisDominatesSimulation>("AnalysisDominatesSimulation", param);
        if (pruning) {
          register_check<PrunedNeverExceedsConservative>("PrunedNeverExceedsConservative",
                                                         param);
        }
      }
    }
  }
  return true;
}();

}  // namespace
}  // namespace mcs
