// Journal crash model tests: record roundtrips, SIGKILL-style torn tails
// (dropped and truncated away on resume), pre-tail integrity failures
// (which must throw, never silently merge), spec-digest and version
// refusal, and the JobResult / ValidationJob codecs the suite driver
// journals through.
#include "mcs/exp/journal.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>

#include "mcs/exp/campaign.hpp"
#include "mcs/exp/validation.hpp"

namespace mcs::exp {
namespace {

namespace fs = std::filesystem;

class JournalTest : public ::testing::Test {
protected:
  void SetUp() override {
    std::string tmpl = (fs::temp_directory_path() / "mcs_journal_XXXXXX").string();
    ASSERT_NE(::mkdtemp(tmpl.data()), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  [[nodiscard]] fs::path path(const char* name) const { return dir_ / name; }

  // Raw byte surgery for corruption tests.
  static std::string slurp(const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  }
  static void spew(const fs::path& p, const std::string& bytes) {
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  fs::path dir_;
};

TEST_F(JournalTest, RecordCodecRoundtrips) {
  RecordWriter w;
  w.u64(0xdeadbeefcafef00dULL);
  w.i64(-42);
  w.f64(3.25);
  w.f64(-0.0);  // sign bit must survive (bit_cast, not text)
  w.str("hello journal");
  w.str("");

  RecordReader r(w.bytes());
  EXPECT_EQ(r.u64(), 0xdeadbeefcafef00dULL);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f64(), 3.25);
  EXPECT_TRUE(std::signbit(r.f64()));
  EXPECT_EQ(r.str(), "hello journal");
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.exhausted());
}

TEST_F(JournalTest, RecordReaderThrowsOnTruncatedPayload) {
  RecordWriter w;
  w.str("abcdef");
  const std::string bytes = w.bytes();
  RecordReader short_scalar(std::string_view(bytes).substr(0, 4));
  EXPECT_THROW((void)short_scalar.u64(), JournalError);
  RecordReader short_string(std::string_view(bytes).substr(0, 10));
  EXPECT_THROW((void)short_string.str(), JournalError);
}

TEST_F(JournalTest, CreateAppendReadRoundtrips) {
  const fs::path p = path("a.journal");
  const JournalHeader header{kJournalVersion, 0x1234};
  {
    JournalWriter writer = JournalWriter::create(p, header);
    writer.append("first");
    writer.append(std::string("\x00\x01\xff binary", 10));
    writer.append("third");
    writer.close();
  }
  const JournalContents contents = read_journal(p);
  EXPECT_EQ(contents.header.version, kJournalVersion);
  EXPECT_EQ(contents.header.spec_digest, 0x1234u);
  ASSERT_EQ(contents.records.size(), 3u);
  EXPECT_EQ(contents.records[0], "first");
  EXPECT_EQ(contents.records[1], std::string("\x00\x01\xff binary", 10));
  EXPECT_EQ(contents.records[2], "third");
  EXPECT_FALSE(contents.truncated);
  EXPECT_EQ(contents.valid_bytes, fs::file_size(p));
}

TEST_F(JournalTest, TornTailIsDroppedNotFatal) {
  const fs::path p = path("torn.journal");
  const JournalHeader header{kJournalVersion, 7};
  {
    JournalWriter writer = JournalWriter::create(p, header);
    writer.append("intact one");
    writer.append("intact two");
    writer.close();
  }
  // Simulate a SIGKILL mid-write: a partial record prefix at the tail.
  const std::uint64_t intact_bytes = fs::file_size(p);
  std::ofstream(p, std::ios::binary | std::ios::app) << "\x05\x00\x00torn";

  const JournalContents contents = read_journal(p);
  ASSERT_EQ(contents.records.size(), 2u);
  EXPECT_TRUE(contents.truncated);
  EXPECT_EQ(contents.valid_bytes, intact_bytes);
}

TEST_F(JournalTest, OpenOrCreateTruncatesTornTailAndContinues) {
  const fs::path p = path("resume.journal");
  const JournalHeader header{kJournalVersion, 99};
  {
    JournalWriter writer = JournalWriter::create(p, header);
    writer.append("one");
    writer.append("two");
    writer.close();
  }
  std::ofstream(p, std::ios::binary | std::ios::app) << "garbage tail";

  JournalContents recovered;
  {
    JournalWriter writer = JournalWriter::open_or_create(p, header, recovered);
    ASSERT_EQ(recovered.records.size(), 2u);
    EXPECT_TRUE(recovered.truncated);
    writer.append("three");
    writer.close();
  }
  // The torn tail is gone and the new record continues the intact prefix.
  const JournalContents contents = read_journal(p);
  ASSERT_EQ(contents.records.size(), 3u);
  EXPECT_EQ(contents.records[2], "three");
  EXPECT_FALSE(contents.truncated);
}

TEST_F(JournalTest, OpenOrCreateCreatesMissingFile) {
  const fs::path p = path("fresh.journal");
  const JournalHeader header{kJournalVersion, 5};
  JournalContents recovered{.header = {9, 9}, .truncated = true};
  JournalWriter writer = JournalWriter::open_or_create(p, header, recovered);
  EXPECT_TRUE(writer.is_open());
  EXPECT_TRUE(recovered.records.empty());
  EXPECT_FALSE(recovered.truncated);
  writer.append("only");
  writer.close();
  EXPECT_EQ(read_journal(p).records.size(), 1u);
}

TEST_F(JournalTest, OpenOrCreateRefusesSpecDigestMismatch) {
  const fs::path p = path("mismatch.journal");
  { JournalWriter::create(p, JournalHeader{kJournalVersion, 111}).close(); }
  JournalContents recovered;
  EXPECT_THROW(JournalWriter::open_or_create(p, JournalHeader{kJournalVersion, 222}, recovered),
               JournalError);
}

TEST_F(JournalTest, WrongMagicThrows) {
  const fs::path p = path("magic.journal");
  { JournalWriter::create(p, JournalHeader{kJournalVersion, 1}).close(); }
  std::string bytes = slurp(p);
  bytes[0] = 'X';
  spew(p, bytes);
  EXPECT_THROW((void)read_journal(p), JournalError);
}

TEST_F(JournalTest, HeaderCorruptionThrows) {
  const fs::path p = path("header.journal");
  { JournalWriter::create(p, JournalHeader{kJournalVersion, 1}).close(); }
  std::string bytes = slurp(p);
  bytes[8] ^= 0x40;  // flip a version bit: header checksum must catch it
  spew(p, bytes);
  EXPECT_THROW((void)read_journal(p), JournalError);
}

// A journal written under an older record layout is refused: resuming it
// would read its counters into the wrong fields.
TEST_F(JournalTest, OlderVersionThrows) {
  const fs::path p = path("old.journal");
  { JournalWriter::create(p, JournalHeader{kJournalVersion - 1, 1}).close(); }
  EXPECT_THROW((void)read_journal(p), JournalError);
}

TEST_F(JournalTest, ShortFileThrows) {
  const fs::path p = path("short.journal");
  spew(p, "MCSJRNL1");  // magic only, no header fields
  EXPECT_THROW((void)read_journal(p), JournalError);
}

TEST_F(JournalTest, MissingFileThrowsOnRead) {
  EXPECT_THROW((void)read_journal(path("nope.journal")), JournalError);
}

// A checksum failure in the middle of the file is indistinguishable from a
// torn tail at that point, so everything from the first bad record onward
// is dropped — the affected jobs re-run, results are never silently wrong.
TEST_F(JournalTest, MidFileCorruptionDropsTheSuffix) {
  const fs::path p = path("midfile.journal");
  std::uint64_t bytes_before_records = 0;
  {
    JournalWriter writer = JournalWriter::create(p, JournalHeader{kJournalVersion, 3});
    bytes_before_records = fs::file_size(p);
    writer.append("first record payload");
    writer.append("second record payload");
    writer.close();
  }
  std::string bytes = slurp(p);
  // Flip one payload byte of the FIRST record (past its 16-byte prefix).
  bytes[static_cast<std::size_t>(bytes_before_records) + 16] ^= 0x01;
  spew(p, bytes);

  const JournalContents contents = read_journal(p);
  EXPECT_TRUE(contents.records.empty());
  EXPECT_TRUE(contents.truncated);
  EXPECT_EQ(contents.valid_bytes, bytes_before_records);
}

TEST_F(JournalTest, AppendAfterCloseThrows) {
  const fs::path p = path("closed.journal");
  JournalWriter writer = JournalWriter::create(p, JournalHeader{kJournalVersion, 1});
  writer.close();
  EXPECT_FALSE(writer.is_open());
  EXPECT_THROW(writer.append("late"), JournalError);
}

// The campaign's journal payloads: every deterministic JobResult field
// must survive the encode/decode roundtrip bit-for-bit (the resumed row
// feeds the same signature as the original).
TEST_F(JournalTest, JobResultCodecRoundtripsEveryField) {
  JobResult job;
  job.job_index = 7;
  job.dimension = 40;
  job.replica = 1;
  job.system_seed = 123456789;
  job.processes = 41;
  job.messages = 17;
  job.inter_cluster_messages = 5;
  job.state = RunState::Timeout;
  job.error = "timeout: watchdog deadline 50 ms exceeded";
  job.seconds = 1.25;
  job.evals = 321;
  job.delta_replays = 300;
  StrategyOutcome sf;
  sf.strategy = Strategy::Sf;
  sf.schedulable = true;
  sf.delta.f1 = -12;
  sf.delta.f2 = 34;
  sf.s_total = 120;
  sf.evaluations = 1;
  StrategyOutcome sas;
  sas.strategy = Strategy::Sas;
  sas.skipped = true;
  job.outcomes = {sf, sas};

  const JobResult back = decode_job_result(encode_job_result(job));
  EXPECT_EQ(back.job_index, job.job_index);
  EXPECT_EQ(back.dimension, job.dimension);
  EXPECT_EQ(back.replica, job.replica);
  EXPECT_EQ(back.system_seed, job.system_seed);
  EXPECT_EQ(back.processes, job.processes);
  EXPECT_EQ(back.messages, job.messages);
  EXPECT_EQ(back.inter_cluster_messages, job.inter_cluster_messages);
  EXPECT_EQ(back.state, job.state);
  EXPECT_EQ(back.error, job.error);
  EXPECT_EQ(back.seconds, job.seconds);
  EXPECT_EQ(back.evals, job.evals);
  EXPECT_EQ(back.delta_replays, job.delta_replays);
  ASSERT_EQ(back.outcomes.size(), 2u);
  EXPECT_EQ(back.outcomes[0].strategy, Strategy::Sf);
  EXPECT_EQ(back.outcomes[0].schedulable, true);
  EXPECT_EQ(back.outcomes[0].delta.f1, -12);
  EXPECT_EQ(back.outcomes[0].delta.f2, 34);
  EXPECT_EQ(back.outcomes[0].s_total, 120);
  EXPECT_EQ(back.outcomes[1].skipped, true);
  EXPECT_EQ(back.signature(), job.signature());
}

TEST_F(JournalTest, DecodeRejectsMalformedPayloads) {
  EXPECT_THROW((void)decode_job_result("too short"), JournalError);
  EXPECT_NO_THROW((void)decode_job_result(encode_job_result(JobResult{})));
  // A full record with a state no journaled row holds: 3 is the retired
  // `shed` state, and pending rows are never journaled.
  for (const int state : {3, 4, 9}) {
    JobResult job;
    job.state = static_cast<RunState>(state);
    EXPECT_THROW((void)decode_job_result(encode_job_result(job)), JournalError)
        << "state " << state;
    ValidationJob vjob;
    vjob.state = static_cast<RunState>(state);
    EXPECT_THROW((void)decode_validation_job(encode_validation_job(vjob)),
                 JournalError)
        << "state " << state;
  }
}

// The codec reads fields in order, so a record longer than the fields it
// decodes was written under another layout: refuse it instead of ignoring
// the excess.
TEST_F(JournalTest, DecodeRejectsTrailingBytes) {
  JobResult job;
  job.outcomes.resize(1);
  RecordWriter extra;
  extra.u64(0);
  const std::string payload = encode_job_result(job) + extra.bytes();
  EXPECT_NO_THROW((void)decode_job_result(encode_job_result(job)));
  EXPECT_THROW((void)decode_job_result(payload), JournalError);
}

// A checksummed header of an older version is intact, but its records use
// another layout: --resume must refuse it by version.
void expect_resume_refuses_version(const fs::path& p, std::uint64_t version) {
  CampaignSpec spec;
  spec.name = "version-test";
  spec.suite = "tiny";
  spec.seeds_per_dim = 1;
  spec.strategies = {Strategy::Sf};
  spec.jobs = 1;
  {
    JournalWriter writer =
        JournalWriter::create(p, JournalHeader{version, campaign_spec_digest(spec)});
    writer.append(encode_job_result(JobResult{}));
    writer.close();
  }
  RunOptions options;
  options.journal_path = p.string();
  options.resume = true;
  try {
    (void)run_campaign(spec, options);
    ADD_FAILURE() << "a version-" << version << " journal was resumed";
  } catch (const JournalError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported version " + std::to_string(version)),
              std::string::npos)
        << e.what();
  }
}

// Version 2 records carry two evaluation-cache counters version 3 dropped.
TEST_F(JournalTest, ResumeRefusesAVersion2Journal) {
  expect_resume_refuses_version(path("v2.journal"), 2);
}

// Version 3 records store the attempt count version 4 dropped.
TEST_F(JournalTest, ResumeRefusesAVersion3Journal) {
  expect_resume_refuses_version(path("v3.journal"), 3);
}

// Version 4 records' delta_replays counts MCS runs, not replayed components.
TEST_F(JournalTest, ResumeRefusesAVersion4Journal) {
  expect_resume_refuses_version(path("v4.journal"), 4);
}

// Every ValidationJob field survives the journal roundtrip — the
// violations, each scenario outcome and all nine fault counters — so a
// resumed validation report matches the uninterrupted one field by field.
TEST_F(JournalTest, ValidationJobCodecRoundtripsEveryField) {
  ValidationJob job;
  job.job_index = 3;
  job.dimension = 32;
  job.replica = 2;
  job.system_seed = 7042;
  job.processes = 33;
  job.messages = 21;
  job.state = RunState::Timeout;
  job.error = "timeout: watchdog deadline 50 ms exceeded";
  job.seconds = 0.5;
  job.evals = 12;
  job.delta_replays = 9;
  job.converged = true;
  job.schedulable = true;
  job.bounds_checked = true;
  job.skip_reason = "fault-free run ended stalled";
  job.violations = {{"message m6", 1052, 948}, {"buffer OutCAN", 40, 32}};
  ScenarioOutcome s;
  s.scenario = "storm";
  s.sim_status = sim::SimStatus::EventLimitExhausted;
  s.deadline_misses = 4;
  s.messages_lost = 5;
  s.config_violations = 6;
  s.faults = {11, 12, 13, 14, 15, 16, 17, 18, 19};
  s.max_out_can = 64;
  s.max_out_ttp = 48;
  s.queue_over_bound = 2;
  s.worst_lateness = -17;
  job.scenarios = {s, ScenarioOutcome{}};

  const ValidationJob back = decode_validation_job(encode_validation_job(job));
  EXPECT_EQ(back.job_index, job.job_index);
  EXPECT_EQ(back.dimension, job.dimension);
  EXPECT_EQ(back.replica, job.replica);
  EXPECT_EQ(back.system_seed, job.system_seed);
  EXPECT_EQ(back.processes, job.processes);
  EXPECT_EQ(back.messages, job.messages);
  EXPECT_EQ(back.state, job.state);
  EXPECT_EQ(back.error, job.error);
  EXPECT_EQ(back.seconds, job.seconds);
  EXPECT_EQ(back.evals, job.evals);
  EXPECT_EQ(back.delta_replays, job.delta_replays);
  EXPECT_EQ(back.converged, job.converged);
  EXPECT_EQ(back.schedulable, job.schedulable);
  EXPECT_EQ(back.bounds_checked, job.bounds_checked);
  EXPECT_EQ(back.skip_reason, job.skip_reason);
  ASSERT_EQ(back.violations.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(back.violations[i].activity, job.violations[i].activity);
    EXPECT_EQ(back.violations[i].simulated, job.violations[i].simulated);
    EXPECT_EQ(back.violations[i].bound, job.violations[i].bound);
  }
  ASSERT_EQ(back.scenarios.size(), 2u);
  const ScenarioOutcome& b = back.scenarios[0];
  EXPECT_EQ(b.scenario, s.scenario);
  EXPECT_EQ(b.sim_status, s.sim_status);
  EXPECT_EQ(b.deadline_misses, s.deadline_misses);
  EXPECT_EQ(b.messages_lost, s.messages_lost);
  EXPECT_EQ(b.config_violations, s.config_violations);
  EXPECT_EQ(b.faults.can_frames_dropped, 11);
  EXPECT_EQ(b.faults.can_messages_lost, 12);
  EXPECT_EQ(b.faults.can_frames_delayed, 13);
  EXPECT_EQ(b.faults.ttp_frames_dropped, 14);
  EXPECT_EQ(b.faults.ttp_messages_lost, 15);
  EXPECT_EQ(b.faults.babble_seizures, 16);
  EXPECT_EQ(b.faults.tt_jitter_events, 17);
  EXPECT_EQ(b.faults.gateway_jitter_events, 18);
  EXPECT_EQ(b.faults.exec_variations, 19);
  EXPECT_EQ(b.max_out_can, s.max_out_can);
  EXPECT_EQ(b.max_out_ttp, s.max_out_ttp);
  EXPECT_EQ(b.queue_over_bound, s.queue_over_bound);
  EXPECT_EQ(b.worst_lateness, s.worst_lateness);
  EXPECT_EQ(back.scenarios[1].scenario, "");
  EXPECT_EQ(back.signature(), job.signature());

  // The codec reads fields in order: excess bytes mean another layout.
  RecordWriter extra;
  extra.u64(0);
  EXPECT_THROW((void)decode_validation_job(encode_validation_job(job) + extra.bytes()),
               JournalError);
}

}  // namespace
}  // namespace mcs::exp
