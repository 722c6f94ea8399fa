// End-to-end crash/recovery tests against the real mcs_synth binary: a
// journaled campaign or validation run is SIGKILLed mid-run (the harshest
// crash the journal must survive — no destructors, possibly a torn
// record) or sent SIGINT (the graceful drain), then resumed with
// `--resume`; the resumed report signature must equal an uninterrupted
// run's bit for bit.
//
// The binary path arrives via the MCS_SYNTH_BIN compile definition
// (CMake wires it to $<TARGET_FILE:mcs_synth>); without it — e.g. a
// build with MCS_BUILD_TOOLS=OFF — the test compiles to a skip.
#include <gtest/gtest.h>

#ifdef MCS_SYNTH_BIN

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "mcs/exp/journal.hpp"

namespace {

namespace fs = std::filesystem;

constexpr std::size_t kJournalHeaderBytes = 32;

struct RunOutput {
  int exit_code = -1;
  std::string text;
};

RunOutput run_synth(const std::string& args) {
  const std::string command = std::string(MCS_SYNTH_BIN) + " " + args + " 2>&1";
  FILE* pipe = ::popen(command.c_str(), "r");
  RunOutput out;
  if (pipe == nullptr) return out;
  char buffer[4096];
  std::size_t n = 0;
  while ((n = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    out.text.append(buffer, n);
  }
  const int status = ::pclose(pipe);
  out.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return out;
}

// Extracts the 16-hex-digit report signature from mcs_synth stdout.
std::string extract_signature(const std::string& text) {
  const std::string needle = "signature: ";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return {};
  return text.substr(at + needle.size(), 16);
}

// Starts mcs_synth with `args` (output discarded) and sends it `signo` as
// soon as `journal` holds at least one record; `status` receives the
// child's wait status.  A child that finishes before the signal is fine:
// resume from ANY journal prefix must reproduce the signature.
void run_and_signal(const std::vector<std::string>& args, const fs::path& journal,
                    int signo, int& status) {
  std::vector<char*> argv = {const_cast<char*>(MCS_SYNTH_BIN)};
  for (const std::string& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    const int null_fd = ::open("/dev/null", O_WRONLY);
    if (null_fd >= 0) {
      ::dup2(null_fd, STDOUT_FILENO);
      ::dup2(null_fd, STDERR_FILENO);
    }
    ::execv(MCS_SYNTH_BIN, argv.data());
    _exit(127);  // exec failed
  }
  const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (std::chrono::steady_clock::now() < give_up) {
    if (::waitpid(child, &status, WNOHANG) == child) {
      ASSERT_TRUE(fs::exists(journal));
      return;  // finished before we could signal it — still fine
    }
    std::error_code ec;
    const auto size = fs::file_size(journal, ec);
    if (!ec && size > kJournalHeaderBytes) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(::kill(child, signo), 0);
  ASSERT_EQ(::waitpid(child, &status, 0), child);
  ASSERT_TRUE(fs::exists(journal));
}

// SIGKILL: no signal handler, no destructors — the child dies at once
// unless it had already exited on its own.
void run_and_sigkill(const std::vector<std::string>& args, const fs::path& journal) {
  int status = 0;
  ASSERT_NO_FATAL_FAILURE(run_and_signal(args, journal, SIGKILL, status));
  if (WIFSIGNALED(status)) ASSERT_EQ(WTERMSIG(status), SIGKILL);
}

class ResumeKillTest : public ::testing::Test {
protected:
  void SetUp() override {
    std::string tmpl = (fs::temp_directory_path() / "mcs_kill_XXXXXX").string();
    ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
    dir_ = tmpl;
    spec_ = dir_ / "kill.campaign";
    std::ofstream spec(spec_);
    // Large enough that a kill usually lands mid-campaign; correctness
    // does not depend on the timing — resume from ANY journal prefix
    // (empty, partial, torn, complete) must reproduce the signature.
    spec << "name = kill-resume\n"
            "suite = tiny\n"
            "seeds_per_dim = 3\n"
            "suite_base_seed = 500\n"
            "campaign_seed = 7\n"
            "strategies = sf, os, sas\n"
            "sa_max_evaluations = 120\n";
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  fs::path dir_;
  fs::path spec_;
};

TEST_F(ResumeKillTest, ResumeAfterSigkillReproducesTheSignature) {
  // Reference: the uninterrupted run's signature.
  const RunOutput full =
      run_synth("--campaign " + spec_.string() + " --jobs 2");
  ASSERT_EQ(full.exit_code, 0) << full.text;
  const std::string expected = extract_signature(full.text);
  ASSERT_EQ(expected.size(), 16u) << full.text;

  // Journaled run, SIGKILLed as soon as at least one record hit the disk.
  const fs::path journal = dir_ / "kill.journal";
  ASSERT_NO_FATAL_FAILURE(run_and_sigkill(
      {"--campaign", spec_.string(), "--jobs", "2", "--journal", journal.string()},
      journal));

  // Resume: only the un-journaled jobs re-run; the merged report must be
  // indistinguishable from the uninterrupted one.
  const RunOutput resumed = run_synth("--campaign " + spec_.string() +
                                      " --jobs 2 --resume " + journal.string());
  ASSERT_EQ(resumed.exit_code, 0) << resumed.text;
  EXPECT_NE(resumed.text.find("resumed "), std::string::npos) << resumed.text;
  EXPECT_EQ(extract_signature(resumed.text), expected) << resumed.text;
}

// Validation journals and resumes through the same suite driver: the
// shipped soundness spec, killed mid-run, resumes to its uninterrupted
// signature and exit status.
TEST_F(ResumeKillTest, ValidationResumeAfterSigkillReproducesTheSignature) {
  const std::string spec =
      (fs::path(MCS_TEST_DATA_DIR) / ".." / ".." / "examples" / "soundness.validation")
          .string();
  const RunOutput full = run_synth("--validate " + spec + " --jobs 1");
  ASSERT_TRUE(full.exit_code == 0 || full.exit_code == 1) << full.text;
  const std::string expected = extract_signature(full.text);
  ASSERT_EQ(expected.size(), 16u) << full.text;

  const fs::path journal = dir_ / "validation.journal";
  ASSERT_NO_FATAL_FAILURE(run_and_sigkill(
      {"--validate", spec, "--jobs", "1", "--journal", journal.string()}, journal));

  const RunOutput resumed =
      run_synth("--validate " + spec + " --jobs 2 --resume " + journal.string());
  EXPECT_EQ(resumed.exit_code, full.exit_code) << resumed.text;
  EXPECT_NE(resumed.text.find("resumed "), std::string::npos) << resumed.text;
  EXPECT_EQ(extract_signature(resumed.text), expected) << resumed.text;

  // A validation journal never resumes a campaign: exit 5, journal error.
  const RunOutput cross = run_synth("--campaign " + spec_.string() + " --resume " +
                                    journal.string());
  EXPECT_EQ(cross.exit_code, 5) << cross.text;
  EXPECT_NE(cross.text.find("journal"), std::string::npos) << cross.text;
}

// SIGINT drains the run gracefully: jobs already running finish and are
// journaled, unstarted ones stay pending, and the exit code is 4 — or 0
// when every job had started before the signal.  The journal holds only
// whole records, and --resume finishes the run to the uninterrupted
// signature.
TEST_F(ResumeKillTest, ResumeAfterSigintReproducesTheSignature) {
  const RunOutput full = run_synth("--campaign " + spec_.string() + " --jobs 2");
  ASSERT_EQ(full.exit_code, 0) << full.text;
  const std::string expected = extract_signature(full.text);
  ASSERT_EQ(expected.size(), 16u) << full.text;

  const fs::path journal = dir_ / "sigint.journal";
  int status = 0;
  ASSERT_NO_FATAL_FAILURE(run_and_signal(
      {"--campaign", spec_.string(), "--jobs", "2", "--journal", journal.string()},
      journal, SIGINT, status));
  ASSERT_TRUE(WIFEXITED(status)) << "status " << status;
  EXPECT_TRUE(WEXITSTATUS(status) == 4 || WEXITSTATUS(status) == 0)
      << "exit " << WEXITSTATUS(status);

  EXPECT_FALSE(mcs::exp::read_journal(journal).truncated);
  const RunOutput resumed = run_synth("--campaign " + spec_.string() +
                                      " --jobs 2 --resume " + journal.string());
  ASSERT_EQ(resumed.exit_code, 0) << resumed.text;
  EXPECT_EQ(extract_signature(resumed.text), expected) << resumed.text;
}

TEST_F(ResumeKillTest, ResumeUnderADifferentSpecExitsWithJournalError) {
  const fs::path journal = dir_ / "mismatch.journal";
  const RunOutput first = run_synth("--campaign " + spec_.string() +
                                    " --jobs 2 --journal " + journal.string());
  ASSERT_EQ(first.exit_code, 0) << first.text;

  const fs::path other_spec = dir_ / "other.campaign";
  std::ofstream(other_spec) << "suite = tiny\nseeds_per_dim = 3\n"
                               "campaign_seed = 8\nstrategies = sf\n";
  const RunOutput resumed = run_synth("--campaign " + other_spec.string() +
                                      " --resume " + journal.string());
  EXPECT_EQ(resumed.exit_code, 5) << resumed.text;  // journal mismatch
  EXPECT_NE(resumed.text.find("journal"), std::string::npos) << resumed.text;
}

}  // namespace

#else  // !MCS_SYNTH_BIN

TEST(ResumeKillTest, RequiresMcsSynthBinary) {
  GTEST_SKIP() << "mcs_synth not built; crash/resume e2e test skipped";
}

#endif
