// bench_soundness — campaign-scale soundness fuzzing of the analysis.
//
// Sweeps the validation suite (DESIGN.md §5): per instance, synthesize a
// configuration, simulate it fault-free under WCET execution and assert
// that every simulated instant respects its analytic bound, then
// re-simulate under the built-in fault scenarios and report degradation.
// MCS_BENCH_SEEDS scales the instance count (default 2 seeds per
// dimension => 4 systems; MCS_BENCH_FULL => 10 per dimension).
//
// Exit status is nonzero when any fault-free bound violation was found —
// those are analysis soundness bugs, and the report prints the replayable
// (suite, system_seed, strategy) coordinates of each.
#include <cstdio>
#include <fstream>
#include <iostream>

#include "bench_common.hpp"
#include "mcs/exp/validation.hpp"

using namespace mcs;

int main() {
  const bench::Profile profile = bench::Profile::from_env();

  exp::ValidationSpec spec;
  spec.name = "soundness";
  spec.suite = "validation";
  spec.seeds_per_dim = profile.seeds_per_dim * 5;  // light jobs: go wider
  spec.strategy = exp::Strategy::Os;
  spec.budgets.hopa_iterations = profile.hopa_iterations;
  spec.jobs = profile.jobs;
  for (const std::string& name : sim::FaultSpec::scenario_names()) {
    spec.scenarios.push_back(sim::FaultSpec::scenario(name, /*seed=*/1));
  }

  const exp::ValidationResult result = exp::run_validation(spec);

  std::printf(
      "soundness fuzzing: %zu systems, strategy %s, %zu scenario(s), "
      "%zu worker(s), %.1f s wall\n\n",
      result.jobs.size(), exp::to_string(spec.strategy).c_str(),
      spec.scenarios.size(), result.workers, result.wall_seconds);
  result.summary_table().print(std::cout);
  std::printf(
      "\ntotals: %zu ok, %zu timeout, %zu failed, %zu bound violation(s), "
      "signature %016llx\n",
      result.count(exp::RunState::Done), result.count(exp::RunState::Timeout),
      result.count(exp::RunState::Failed), result.total_violations(),
      static_cast<unsigned long long>(result.signature()));

  for (const exp::ValidationJob& job : result.jobs) {
    for (const sim::BoundViolation& v : job.violations) {
      std::printf("BOUND VIOLATION: %s simulated %lld > bound %lld "
                  "(suite %s, system_seed %llu)\n",
                  v.activity.c_str(), static_cast<long long>(v.simulated),
                  static_cast<long long>(v.bound), spec.suite.c_str(),
                  static_cast<unsigned long long>(job.system_seed));
    }
    if (job.state == exp::RunState::Failed) {
      std::printf("job %zu (system_seed %llu) failed: %s\n", job.job_index,
                  static_cast<unsigned long long>(job.system_seed),
                  job.error.c_str());
    }
  }

  std::ofstream out("BENCH_soundness.json");
  if (out) {
    exp::write_json(result, out);
    std::printf("wrote BENCH_soundness.json\n");
  } else {
    std::fprintf(stderr, "warning: could not write BENCH_soundness.json\n");
  }

  return result.total_violations() == 0 ? 0 : 1;
}
