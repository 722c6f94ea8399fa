#include "mcs/exp/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>
#include <utility>

#include "mcs/obs/trace.hpp"
#include "mcs/util/hash.hpp"

namespace mcs::exp {

namespace {

constexpr char kMagic[8] = {'M', 'C', 'S', 'J', 'R', 'N', 'L', '1'};
// magic + version + spec_digest + header checksum.
constexpr std::size_t kHeaderBytes = 8 + 3 * sizeof(std::uint64_t);
// payload_length + payload_checksum.
constexpr std::size_t kRecordPrefixBytes = 2 * sizeof(std::uint64_t);
// A record longer than this cannot be a real job row; treating it as
// corruption keeps a torn length field from provoking a huge allocation.
constexpr std::uint64_t kMaxRecordBytes = 1ULL << 24;

void put_u64(std::string& out, std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<char>((value >> shift) & 0xff));
  }
}

std::uint64_t get_u64(const char* bytes) {
  std::uint64_t value = 0;
  for (int shift = 0; shift < 64; shift += 8) {
    value |= static_cast<std::uint64_t>(static_cast<unsigned char>(*bytes++))
             << shift;
  }
  return value;
}

std::uint64_t payload_checksum(std::string_view payload) {
  util::Fnv1a h;
  for (const char c : payload) h.update_byte(static_cast<std::uint8_t>(c));
  return h.digest();
}

std::uint64_t header_checksum(const JournalHeader& header) {
  util::Fnv1a h;
  h.update(header.version);
  h.update(header.spec_digest);
  return h.digest();
}

std::string encode_header(const JournalHeader& header) {
  std::string bytes(kMagic, sizeof(kMagic));
  put_u64(bytes, header.version);
  put_u64(bytes, header.spec_digest);
  put_u64(bytes, header_checksum(header));
  return bytes;
}

[[noreturn]] void throw_errno(const std::string& what) {
  throw JournalError(what + ": " + std::strerror(errno));
}

void write_all(int fd, std::string_view bytes, const std::string& what) {
  std::size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw_errno(what);
    }
    written += static_cast<std::size_t>(n);
  }
}

std::string read_whole_file(const std::filesystem::path& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw_errno("open '" + path.string() + "'");
  std::string data;
  char buffer[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      throw_errno("read '" + path.string() + "'");
    }
    if (n == 0) break;
    data.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return data;
}

/// Parses journal bytes into contents.  Called with the full file; the
/// intact prefix length comes back in contents.valid_bytes.
JournalContents parse_journal(const std::string& data,
                              const std::filesystem::path& path) {
  JournalContents contents;
  if (data.size() < kHeaderBytes) {
    throw JournalError("'" + path.string() + "' is too short to hold a header (" +
                       std::to_string(data.size()) + " bytes)");
  }
  if (std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
    throw JournalError("'" + path.string() + "' has wrong magic (not a journal)");
  }
  contents.header.version = get_u64(data.data() + 8);
  contents.header.spec_digest = get_u64(data.data() + 16);
  const std::uint64_t stored_checksum = get_u64(data.data() + 24);
  if (stored_checksum != header_checksum(contents.header)) {
    throw JournalError("'" + path.string() + "' header checksum mismatch");
  }
  if (contents.header.version != kJournalVersion) {
    throw JournalError("'" + path.string() + "' has unsupported version " +
                       std::to_string(contents.header.version));
  }

  std::size_t offset = kHeaderBytes;
  while (offset < data.size()) {
    // Short prefix, oversized length, short payload, or bad checksum: all
    // are the expected shape of a SIGKILL-torn tail — stop, mark truncated.
    if (data.size() - offset < kRecordPrefixBytes) break;
    const std::uint64_t length = get_u64(data.data() + offset);
    const std::uint64_t checksum = get_u64(data.data() + offset + 8);
    if (length > kMaxRecordBytes) break;
    if (data.size() - offset - kRecordPrefixBytes < length) break;
    const std::string_view payload(data.data() + offset + kRecordPrefixBytes,
                                   static_cast<std::size_t>(length));
    if (payload_checksum(payload) != checksum) break;
    contents.records.emplace_back(payload);
    offset += kRecordPrefixBytes + static_cast<std::size_t>(length);
  }
  contents.truncated = offset != data.size();
  contents.valid_bytes = offset;
  return contents;
}

}  // namespace

JournalContents read_journal(const std::filesystem::path& path) {
  return parse_journal(read_whole_file(path), path);
}

JournalWriter::JournalWriter(int fd, std::filesystem::path path)
    : fd_(fd), path_(std::move(path)) {}

JournalWriter::JournalWriter(JournalWriter&& other) noexcept
    : fd_(std::exchange(other.fd_, -1)),
      path_(std::move(other.path_)),
      appends_since_sync_(other.appends_since_sync_),
      appends_(other.appends_),
      payload_bytes_(other.payload_bytes_) {}

JournalWriter::~JournalWriter() {
  if (fd_ >= 0) {
    ::fsync(fd_);
    ::close(fd_);
  }
}

JournalWriter JournalWriter::create(const std::filesystem::path& path,
                                    const JournalHeader& header) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) throw_errno("create '" + path.string() + "'");
  JournalWriter writer(fd, path);
  write_all(fd, encode_header(header), "write header '" + path.string() + "'");
  if (::fsync(fd) != 0) throw_errno("fsync '" + path.string() + "'");
  return writer;
}

JournalWriter JournalWriter::open_or_create(const std::filesystem::path& path,
                                            const JournalHeader& header,
                                            JournalContents& recovered) {
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) {
    recovered = JournalContents{};
    recovered.header = header;
    return create(path, header);
  }
  recovered = read_journal(path);
  if (recovered.header.spec_digest != header.spec_digest) {
    throw JournalError(
        "'" + path.string() + "' was written for a different spec or job kind " +
        "(journal digest does not match; refusing to merge results)");
  }
  const int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) throw_errno("open '" + path.string() + "'");
  JournalWriter writer(fd, path);
  if (recovered.truncated) {
    if (::ftruncate(fd, static_cast<off_t>(recovered.valid_bytes)) != 0) {
      throw_errno("truncate torn tail of '" + path.string() + "'");
    }
  }
  if (::lseek(fd, static_cast<off_t>(recovered.valid_bytes), SEEK_SET) < 0) {
    throw_errno("seek '" + path.string() + "'");
  }
  return writer;
}

void JournalWriter::append(std::string_view payload) {
  const obs::Span span("journal.append", payload.size());
  const std::lock_guard lock(mutex_);
  if (fd_ < 0) throw JournalError("append to closed journal '" + path_.string() + "'");
  std::string record;
  record.reserve(kRecordPrefixBytes + payload.size());
  put_u64(record, payload.size());
  put_u64(record, payload_checksum(payload));
  record.append(payload);
  // One write(2) per record: a kill can tear at most the final record,
  // which parse_journal drops as the torn tail.
  write_all(fd_, record, "append '" + path_.string() + "'");
  ++appends_;
  payload_bytes_ += payload.size();
  if (++appends_since_sync_ >= kSyncEvery) {
    if (::fsync(fd_) != 0) throw_errno("fsync '" + path_.string() + "'");
    appends_since_sync_ = 0;
  }
}

void JournalWriter::close() {
  const obs::Span span("journal.sync");
  const std::lock_guard lock(mutex_);
  if (fd_ < 0) return;
  const int fd = std::exchange(fd_, -1);
  if (::fsync(fd) != 0) {
    const int error = errno;
    ::close(fd);
    errno = error;
    throw_errno("fsync '" + path_.string() + "'");
  }
  if (::close(fd) != 0) throw_errno("close '" + path_.string() + "'");
}

void RecordWriter::u64(std::uint64_t value) { put_u64(buffer_, value); }

void RecordWriter::i64(std::int64_t value) {
  put_u64(buffer_, static_cast<std::uint64_t>(value));
}

void RecordWriter::f64(double value) {
  put_u64(buffer_, std::bit_cast<std::uint64_t>(value));
}

void RecordWriter::str(std::string_view value) {
  put_u64(buffer_, value.size());
  buffer_.append(value);
}

std::uint64_t RecordReader::u64() {
  if (payload_.size() - offset_ < sizeof(std::uint64_t)) {
    throw JournalError("record truncated while reading u64");
  }
  const std::uint64_t value = get_u64(payload_.data() + offset_);
  offset_ += sizeof(std::uint64_t);
  return value;
}

std::int64_t RecordReader::i64() { return static_cast<std::int64_t>(u64()); }

double RecordReader::f64() { return std::bit_cast<double>(u64()); }

std::size_t RecordReader::count() {
  const std::uint64_t n = u64();
  if (n > payload_.size() - offset_) {
    throw JournalError("record holds implausible element count " + std::to_string(n));
  }
  return static_cast<std::size_t>(n);
}

std::string RecordReader::str() {
  const std::uint64_t length = u64();
  if (payload_.size() - offset_ < length) {
    throw JournalError("record truncated while reading string");
  }
  std::string value(payload_.substr(offset_, static_cast<std::size_t>(length)));
  offset_ += static_cast<std::size_t>(length);
  return value;
}

}  // namespace mcs::exp
