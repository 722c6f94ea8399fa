// End-to-end check that `mcs_synth <system.mcs> --simulate` runs the same
// fault-free soundness step as a validation job: a generated system,
// written with gen::write_system and simulated through the CLI, must
// report exactly the bound violations — and the exit status — that
// run_validation finds for the same instance.
//
// Validation seed 8348 is the known case (ROADMAP item 1): today both
// paths find 4 violations; once the analysis is fixed both find 0, and
// the test keeps holding.
//
// The same harness also pins the `--stats` report of a synthesis run.
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
#include "mcs/gen/paper_example.hpp"
#include "mcs/gen/textio.hpp"

namespace mcs::exp {
namespace {

namespace fs = std::filesystem;

/// Runs `<env> mcs_synth <args> 2>&1`, collecting its output into `text`;
/// returns the pclose status.
int run_mcs_synth(const std::string& args, std::string& text,
                  const std::string& env = "") {
  const std::string command =
      env + std::string(MCS_SYNTH_BIN) + " " + args + " 2>&1";
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return -1;
  char buffer[4096];
  for (std::size_t n = 0; (n = std::fread(buffer, 1, sizeof buffer, pipe)) > 0;) {
    text.append(buffer, n);
  }
  return ::pclose(pipe);
}

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

  std::string text;
  const int status = run_mcs_synth(system.string() + " --strategy sf --simulate", text);
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

TEST(StatsCli, PrintsEveryEngineCounter) {
  std::string dir = (fs::temp_directory_path() / "mcs_stats_XXXXXX").string();
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  const fs::path system = fs::path(dir) / "paper.mcs";
  {
    const gen::PaperExample ex = gen::make_paper_example();
    std::ofstream out(system);
    gen::write_system(out, ex.platform, ex.app);
  }
  // Pinned to the default delta mode whatever the test environment sets:
  // the replay count below is a property of that mode.
  std::string text;
  const int status = run_mcs_synth(system.string() + " --strategy or --stats", text,
                                   "MCS_DELTA=on MCS_DELTA_CHECK=0 ");
  std::error_code ec;
  fs::remove_all(dir, ec);
  ASSERT_TRUE(WIFEXITED(status)) << text;
  EXPECT_EQ(WEXITSTATUS(status), 0) << text;

  for (const char* label :
       {"evaluation engine stats:", "  analysis kernel ", "  mcs runs ",
        "  delta checks ", "  schedule memo hits ", "  elided mcs iterations ",
        "  pass components ", "  candidate-list cache ", "  fixed-point skips ",
        "  scratch footprint "}) {
    EXPECT_NE(text.find(label), std::string::npos) << label << "\n" << text;
  }
  // OR re-evaluates one system many times: all but the first run replay.
  const std::size_t full = text.find(" full, ");
  ASSERT_NE(full, std::string::npos) << text;
  EXPECT_GT(std::stoull(text.substr(full + 7)), 0u) << text;
  EXPECT_NE(text.find(" delta replays, "), std::string::npos) << text;
  for (const char* gone : {"settled", "stolen", "refinement"}) {
    EXPECT_EQ(text.find(gone), std::string::npos) << gone << "\n" << text;
  }
}

}  // namespace
}  // namespace mcs::exp

#else  // !MCS_SYNTH_BIN

TEST(SimulateCli, RequiresMcsSynthBinary) {
  GTEST_SKIP() << "mcs_synth not built; --simulate e2e test skipped";
}

#endif
