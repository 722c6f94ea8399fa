// End-to-end check that `mcs_synth <system.mcs> --simulate` runs the same
// fault-free soundness step as a validation job: a generated system,
// written with gen::write_system and simulated through the CLI, must
// report exactly the bound violations — and the exit status — that
// run_validation finds for the same instance.
//
// Validation seed 8348 is the known case (ROADMAP item 1): today both
// paths find 4 violations; once the analysis is fixed both find 0, and
// the test keeps holding.
#include <gtest/gtest.h>

#ifdef MCS_SYNTH_BIN

#include <stdlib.h>
#include <sys/wait.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "mcs/exp/validation.hpp"
#include "mcs/gen/generator.hpp"
#include "mcs/gen/textio.hpp"

namespace mcs::exp {
namespace {

namespace fs = std::filesystem;

TEST(SimulateCli, ReportsTheBoundViolationsValidationFinds) {
  ValidationSpec spec;
  spec.suite = "validation";
  spec.seeds_per_dim = 1;
  spec.suite_base_seed = 8206;  // job 0 is system seed 8348
  spec.strategy = Strategy::Sf;
  const ValidationResult result = run_validation(spec);
  ASSERT_EQ(result.jobs.size(), 2u);
  const ValidationJob& job = result.jobs[0];
  ASSERT_EQ(job.system_seed, 8348u);
  ASSERT_TRUE(job.bounds_checked) << job.skip_reason;

  std::string dir = (fs::temp_directory_path() / "mcs_simulate_XXXXXX").string();
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  const fs::path system = fs::path(dir) / "seed8348.mcs";
  {
    const gen::GeneratedSystem sys =
        gen::generate(gen::suite_by_name("validation", 1, 8206)[0].params);
    std::ofstream out(system);
    gen::write_system(out, sys.platform, sys.app);
  }

  const std::string command =
      std::string(MCS_SYNTH_BIN) + " " + system.string() + " --strategy sf --simulate 2>&1";
  FILE* pipe = ::popen(command.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string text;
  char buffer[4096];
  for (std::size_t n = 0; (n = std::fread(buffer, 1, sizeof buffer, pipe)) > 0;) {
    text.append(buffer, n);
  }
  const int status = ::pclose(pipe);
  std::error_code ec;
  fs::remove_all(dir, ec);
  ASSERT_TRUE(WIFEXITED(status)) << text;

  std::size_t printed = 0;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    if (line.rfind("BOUND VIOLATION: ", 0) != 0) continue;
    ASSERT_LT(printed, job.violations.size()) << text;
    EXPECT_EQ(line.rfind("BOUND VIOLATION: " + job.violations[printed].activity + " ", 0),
              0u)
        << line;
    ++printed;
  }
  EXPECT_EQ(printed, job.violations.size()) << text;
  EXPECT_EQ(WEXITSTATUS(status), job.schedulable && job.violations.empty() ? 0 : 1)
      << text;
}

}  // namespace
}  // namespace mcs::exp

#else  // !MCS_SYNTH_BIN

TEST(SimulateCli, RequiresMcsSynthBinary) {
  GTEST_SKIP() << "mcs_synth not built; --simulate e2e test skipped";
}

#endif
