// Crash-safe append-only result journal for checkpoint/resume.
//
// A journal is a single file of checksummed records.  The suite driver
// appends one encoded row per settled job — a campaign JobResult or a
// ValidationJob; after a crash (including SIGKILL mid-write)
// `mcs_synth --resume` reads the journal back, skips every job with an
// intact record, and re-runs only the rest — the merged report is
// bit-identical to an uninterrupted run.
//
// Layout (all integers little-endian u64):
//
//   header   magic "MCSJRNL1" | version | spec_digest | checksum
//   record   payload_length | payload_checksum | payload bytes
//   record   ...
//
// `spec_digest` fingerprints the job kind and every determinism-relevant
// field of its spec (exp::campaign_spec_digest, exp::validation_spec_digest);
// resuming under a spec whose digest differs — or a journal of the other
// kind — is refused with JournalError rather than silently merging
// incompatible results.  Checksums are 64-bit FNV-1a.
//
// Crash model: a torn tail — a record cut short or failing its checksum —
// is expected after SIGKILL and is truncated away on open (those jobs
// simply re-run).  Anything wrong *before* the tail (bad magic, bad header
// checksum, mid-file corruption) is a real integrity failure and throws.
// Appends are written with a single write(2) call each and fsync'd every
// `JournalWriter::kSyncEvery` records, so at most one record is torn by a
// process kill and at most a batch is lost to a machine crash.
#pragma once

#include <cstdint>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace mcs::exp {

/// Integrity failure: wrong magic/version, header checksum mismatch,
/// spec digest mismatch, or corruption before the torn tail.
class JournalError : public std::runtime_error {
public:
  explicit JournalError(const std::string& message)
      : std::runtime_error("journal: " + message) {}
};

/// Journal format version.  5: every record starts with the shared row
/// fields (identity, state, error, seconds, evals, delta_replays) and
/// stores no attempt count; validation rows are journaled too.  Version 4
/// had the same layout but its `delta_replays` counted MCS runs, not
/// replayed pass components; version 3 stored a campaign row's attempts,
/// version 2 two evaluation-cache counters, version 1 `delta_fallbacks`
/// last, so an older journal is refused rather than resumed mislabelled.
inline constexpr std::uint64_t kJournalVersion = 5;

struct JournalHeader {
  std::uint64_t version = kJournalVersion;
  /// Digest of the spec the journaled results were produced under.
  std::uint64_t spec_digest = 0;
};

/// Everything recovered from an existing journal file.
struct JournalContents {
  JournalHeader header;
  std::vector<std::string> records;  ///< intact payloads, append order
  bool truncated = false;            ///< a torn tail was dropped
  std::uint64_t valid_bytes = 0;     ///< file prefix covered by intact data
};

/// Reads a journal, validating the header and every record checksum.
/// Returns the intact prefix; a torn tail only sets `truncated`.  Throws
/// JournalError on pre-tail corruption or a missing/unreadable file.
[[nodiscard]] JournalContents read_journal(const std::filesystem::path& path);

/// Append-only journal writer.  Thread-safe: append() may be called from
/// concurrent worker threads (the suite driver journals each settled row
/// from the worker that ran it).
class JournalWriter {
public:
  /// Creates a fresh journal at `path` (truncating any existing file) and
  /// writes the header.
  static JournalWriter create(const std::filesystem::path& path,
                              const JournalHeader& header);

  /// Resume-opens `path`: if the file exists its header must match
  /// `header` (same version and spec_digest — else JournalError); any torn
  /// tail is truncated away and subsequent appends continue the intact
  /// prefix.  A missing file is created fresh.  Returns the writer plus
  /// the recovered records.
  static JournalWriter open_or_create(const std::filesystem::path& path,
                                      const JournalHeader& header,
                                      JournalContents& recovered);

  JournalWriter(JournalWriter&& other) noexcept;
  JournalWriter& operator=(JournalWriter&&) = delete;
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;
  ~JournalWriter();

  /// Records per fsync batch.  Campaign jobs cost seconds each, so a sync
  /// per append would be cheap there; the batch keeps the journal overhead
  /// unmeasurable for sub-millisecond validation jobs.
  static constexpr std::size_t kSyncEvery = 16;

  /// Appends one checksummed record (single write(2) call; fsync every
  /// kSyncEvery appends).  Throws JournalError on I/O failure.
  void append(std::string_view payload);

  /// Syncs and closes the file; further appends throw.  Throws
  /// JournalError when the final fsync or close fails (the file is closed
  /// either way).
  void close();

  [[nodiscard]] bool is_open() const noexcept { return fd_ >= 0; }
  /// Records this writer appended, and their payload bytes.
  [[nodiscard]] std::uint64_t appends() const noexcept { return appends_; }
  [[nodiscard]] std::uint64_t payload_bytes() const noexcept { return payload_bytes_; }

private:
  JournalWriter(int fd, std::filesystem::path path);

  int fd_ = -1;
  std::filesystem::path path_;
  std::mutex mutex_;
  std::size_t appends_since_sync_ = 0;
  std::uint64_t appends_ = 0;
  std::uint64_t payload_bytes_ = 0;
};

/// Builder for record payloads: fixed-width little-endian scalars and
/// length-prefixed strings, so records parse identically on every host.
class RecordWriter {
public:
  void u64(std::uint64_t value);
  void i64(std::int64_t value);
  void f64(double value);  ///< bit pattern via bit_cast — exact roundtrip
  void str(std::string_view value);

  [[nodiscard]] const std::string& bytes() const noexcept { return buffer_; }
  [[nodiscard]] std::string take() noexcept { return std::move(buffer_); }

private:
  std::string buffer_;
};

/// Mirror of RecordWriter; throws JournalError when a read runs past the
/// payload (a malformed record that slipped past the checksum).
class RecordReader {
public:
  explicit RecordReader(std::string_view payload) : payload_(payload) {}

  [[nodiscard]] std::uint64_t u64();
  [[nodiscard]] std::int64_t i64();
  [[nodiscard]] double f64();
  [[nodiscard]] std::string str();
  /// An element count; more elements than bytes left is malformed (every
  /// element takes at least one byte), so a corrupt count cannot provoke
  /// a huge allocation.
  [[nodiscard]] std::size_t count();
  [[nodiscard]] bool exhausted() const noexcept { return offset_ == payload_.size(); }

private:
  std::string_view payload_;
  std::size_t offset_ = 0;
};

}  // namespace mcs::exp
