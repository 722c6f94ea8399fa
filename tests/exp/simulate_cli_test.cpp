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
// The same harness also pins the `--stats` report and the `--metrics`
// file of a synthesis run.
#include <gtest/gtest.h>

#ifdef MCS_SYNTH_BIN

#include <stdlib.h>
#include <sys/wait.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

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
        "  delta checks ", "  elided mcs iterations ",
        "  pass components ", "  candidate-list cache ", "  fixed-point skips ",
        "  scratch footprint ", "  record store "}) {
    EXPECT_NE(text.find(label), std::string::npos) << label << "\n" << text;
  }
  // OR re-evaluates one system many times, every run with replay enabled.
  const std::size_t full = text.find(" full, ");
  ASSERT_NE(full, std::string::npos) << text;
  EXPECT_GT(std::stoull(text.substr(full + 7)), 0u) << text;
  EXPECT_NE(text.find(" delta replays, "), std::string::npos) << text;
  // ...and left records behind.
  const std::size_t store = text.find("  record store ");
  ASSERT_NE(store, std::string::npos) << text;
  EXPECT_GT(std::stoull(text.substr(store + 15)), 0u) << text;
  for (const char* gone : {"settled", "stolen", "refinement", "memo"}) {
    EXPECT_EQ(text.find(gone), std::string::npos) << gone << "\n" << text;
  }
}

// Single-system mode writes the engine metrics of its one MoveContext.
// The child's delta mode and kernel are pinned whatever the test
// environment sets: the counter names below are those of Packed.
TEST(MetricsCli, SingleSystemWritesTheEngineCounters) {
  std::string dir = (fs::temp_directory_path() / "mcs_metrics_XXXXXX").string();
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  const fs::path metrics = fs::path(dir) / "metrics.json";
  std::string text;
  const int status = run_mcs_synth(
      std::string(MCS_TEST_DATA_DIR) + "/../../examples/paper_example.mcs --metrics " +
          metrics.string(),
      text, "MCS_DELTA=on MCS_DELTA_CHECK=0 MCS_KERNEL=packed ");
  std::ifstream in(metrics);
  std::ostringstream json;
  json << in.rdbuf();
  std::error_code ec;
  fs::remove_all(dir, ec);
  ASSERT_TRUE(WIFEXITED(status)) << text;
  EXPECT_EQ(WEXITSTATUS(status), 0) << text;

  const std::string body = json.str();
  for (const char* name : {"\"delta.full_runs\"", "\"kernel.jobs.packed\"",
                           "\"mcs.iterations_per_run\"",
                           "\"workspace.scratch_bytes_max\""}) {
    EXPECT_NE(body.find(name), std::string::npos) << name << "\n" << body;
  }
  // Every OR evaluation of the paper example is a delta run.
  const std::string key = "{\"name\": \"delta.delta_runs\", \"type\": \"counter\", \"value\": ";
  const std::size_t at = body.find(key);
  ASSERT_NE(at, std::string::npos) << body;
  EXPECT_GT(std::stoull(body.substr(at + key.size())), 0u) << body;
}

// A flag the selected mode does not read is refused before anything runs:
// one `error:` line naming the flag (and the spec key that does its job in
// a suite run), exit 3, and no report file.
TEST(FlagCli, RejectsFlagsTheModeDoesNotRead) {
  const std::string examples = std::string(MCS_TEST_DATA_DIR) + "/../../examples/";
  const std::string system = examples + "paper_example.mcs";
  const std::string campaign = "--campaign " + examples + "tiny.campaign";
  const std::string validate = "--validate " + examples + "soundness.validation";
  std::string dir = (fs::temp_directory_path() / "mcs_flags_XXXXXX").string();
  ASSERT_NE(::mkdtemp(dir.data()), nullptr);
  const std::string report = (fs::path(dir) / "report").string();
  struct Case {
    std::string args;
    std::string message;  ///< the whole error line after "error: "
  };
  const std::vector<Case> cases = {
      {campaign + " --strategy sf", "--strategy applies to a system file; set the "
                                    "spec key 'strategies' instead"},
      {validate + " --strategy sf", "--strategy applies to a system file; set the "
                                    "spec key 'strategy' instead"},
      {campaign + " --conservative", "--conservative applies to a system file; set "
                                     "the spec key 'conservative' instead"},
      {validate + " --paper-ttp", "--paper-ttp applies to a system file; set the "
                                  "spec key 'paper_ttp' instead"},
      {campaign + " --simulate", "--simulate applies only to a system file"},
      {validate + " --sim-trace", "--sim-trace applies only to a system file"},
      {campaign + " --dump-config", "--dump-config applies only to a system file"},
      {validate + " --stats", "--stats applies only to a system file"},
      {campaign + " --faults " + examples + "drop.faults",
       "--faults needs a system file or --validate mode"},
      {system + " --jobs 2", "--jobs needs --campaign or --validate mode"},
      {system + " --report-json " + report,
       "--report-json needs --campaign or --validate mode"},
      {system + " --report-csv " + report,
       "--report-csv needs --campaign or --validate mode"},
      {system + " --journal " + report, "--journal needs --campaign or --validate mode"},
  };
  for (const Case& c : cases) {
    std::string text;
    const int status = run_mcs_synth(c.args, text);
    ASSERT_TRUE(WIFEXITED(status)) << c.args << "\n" << text;
    EXPECT_EQ(WEXITSTATUS(status), 3) << c.args << "\n" << text;
    EXPECT_EQ(text, "error: " + c.message + "\n") << c.args;
    EXPECT_FALSE(fs::exists(report)) << c.args;
  }
  // The retired --job-timeout-ms is an unknown flag in every mode: usage,
  // exit 2.
  for (const std::string& mode : {system, campaign, validate}) {
    const std::string args = mode + " --job-timeout-ms 100 --report-json " + report;
    std::string text;
    const int status = run_mcs_synth(args, text);
    ASSERT_TRUE(WIFEXITED(status)) << args << "\n" << text;
    EXPECT_EQ(WEXITSTATUS(status), 2) << args << "\n" << text;
    EXPECT_EQ(text.rfind("usage: ", 0), 0u) << args << "\n" << text;
    EXPECT_FALSE(fs::exists(report)) << args;
  }
  std::error_code ec;
  fs::remove_all(dir, ec);
}

}  // namespace
}  // namespace mcs::exp

#else  // !MCS_SYNTH_BIN

TEST(SimulateCli, RequiresMcsSynthBinary) {
  GTEST_SKIP() << "mcs_synth not built; --simulate e2e test skipped";
}

#endif
