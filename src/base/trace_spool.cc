#include "src/base/trace_spool.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string_view>

#include "src/base/log.h"

namespace vino {
namespace spool {
namespace {

// CRC-32 (IEEE, reflected polynomial 0xEDB88320), table built at compile
// time — no zlib dependency for a 16-line loop.
constexpr std::array<uint32_t, 256> MakeCrcTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}
constexpr std::array<uint32_t, 256> kCrcTable = MakeCrcTable();

// Reads exactly `len` bytes at `offset`, or reports how many were there.
// Using pread keeps the follower's file position independent of the
// writer's append position (same file may be open in both roles in tests).
ssize_t PReadAll(int fd, void* buf, size_t len, uint64_t offset) {
  uint8_t* p = static_cast<uint8_t*>(buf);
  size_t got = 0;
  while (got < len) {
    const ssize_t n = ::pread(fd, p + got, len - got,
                              static_cast<off_t>(offset + got));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return -1;
    }
    if (n == 0) {
      break;  // EOF.
    }
    got += static_cast<size_t>(n);
  }
  return static_cast<ssize_t>(got);
}

}  // namespace

uint32_t Crc32(const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t c = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    c = kCrcTable[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

// ---------------------------------------------------------------------------
// Segment naming.

std::string SegmentPath(const std::string& base, uint64_t index) {
  return base + ".s" + std::to_string(index) + ".bin";
}

bool ParseSegmentPath(const std::string& path, std::string* base,
                      uint64_t* index) {
  static constexpr std::string_view kSuffix = ".bin";
  if (path.size() <= kSuffix.size() ||
      path.compare(path.size() - kSuffix.size(), kSuffix.size(), kSuffix) !=
          0) {
    return false;
  }
  const std::string stem = path.substr(0, path.size() - kSuffix.size());
  const size_t infix = stem.rfind(".s");
  if (infix == std::string::npos || infix + 2 >= stem.size()) {
    return false;
  }
  const std::string digits = stem.substr(infix + 2);
  for (const char c : digits) {
    if (c < '0' || c > '9') {
      return false;
    }
  }
  if (base != nullptr) {
    *base = stem.substr(0, infix);
  }
  if (index != nullptr) {
    *index = std::strtoull(digits.c_str(), nullptr, 10);
  }
  return true;
}

std::vector<uint64_t> ListSegments(const std::string& base) {
  std::vector<uint64_t> indices;
  std::string dir = ".";
  std::string name = base;
  const size_t slash = base.find_last_of('/');
  if (slash != std::string::npos) {
    dir = slash == 0 ? "/" : base.substr(0, slash);
    name = base.substr(slash + 1);
  }
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return indices;
  }
  while (const dirent* entry = ::readdir(d)) {
    std::string candidate_base;
    uint64_t index = 0;
    if (ParseSegmentPath(entry->d_name, &candidate_base, &index) &&
        candidate_base == name) {
      indices.push_back(index);
    }
  }
  ::closedir(d);
  std::sort(indices.begin(), indices.end());
  return indices;
}

// ---------------------------------------------------------------------------
// SpoolWriter.

SpoolWriter::~SpoolWriter() {
  if (fd_ >= 0) {
    (void)Close();
  }
}

Status SpoolWriter::Open(const std::string& path) {
  if (fd_ >= 0) {
    return Status::kAlreadyExists;
  }
  rotating_ = false;
  base_ = path;
  pending_.reserve(kMaxBatchRecords);
  return OpenSegmentFile();
}

Status SpoolWriter::OpenRotating(const std::string& base,
                                 const Rotation& rotation) {
  if (fd_ >= 0) {
    return Status::kAlreadyExists;
  }
  if (rotation.segment_bytes == 0 || rotation.max_segments == 0) {
    status_ = Status::kInvalidArgs;
    return status_;
  }
  rotating_ = true;
  rotation_ = rotation;
  base_ = base;
  pending_.reserve(kMaxBatchRecords);
  return OpenSegmentFile();
}

Status SpoolWriter::OpenSegmentFile() {
  const std::string path =
      rotating_ ? SegmentPath(base_, segment_index_) : base_;
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    status_ = Status::kInvalidArgs;
    return status_;
  }
  segment_bytes_ = 0;
  const FileHeader header;
  WriteAll(&header, sizeof(header));
  return status_;
}

void SpoolWriter::OnRecord(const trace::TaggedRecord& record) {
  if (fd_ < 0 || !IsOk(status_)) {
    return;  // Sticky failure: spooling degrades to a no-op, never throws.
  }
  pending_.push_back(record);
  if (pending_.size() >= kMaxBatchRecords) {
    (void)WriteBatch(0);
  }
}

Status SpoolWriter::Commit() {
  if (fd_ < 0) {
    return Status::kUnavailable;
  }
  if (pending_.empty()) {
    return status_;
  }
  return WriteBatch(0);
}

Status SpoolWriter::Close() {
  if (fd_ < 0) {
    return status_;
  }
  if (!pending_.empty()) {
    (void)WriteBatch(0);
  }
  (void)WriteBatch(kBatchFlagClose);  // Trailer: record_count == 0.
  (void)::fdatasync(fd_);             // "Durable" means it survives us.
  ::close(fd_);
  fd_ = -1;
  return status_;
}

Status SpoolWriter::WriteBatch(uint32_t flags) {
  if (!IsOk(status_)) {
    pending_.clear();
    return status_;
  }
  BatchHeader header;
  header.flags = flags;
  header.batch_seq = batch_seq_++;
  header.lost_total = lost_total_;
  header.record_count = static_cast<uint32_t>(pending_.size());
  header.payload_crc =
      Crc32(pending_.data(), pending_.size() * sizeof(trace::TaggedRecord));
  WriteAll(&header, sizeof(header));
  WriteAll(pending_.data(), pending_.size() * sizeof(trace::TaggedRecord));
  if (IsOk(status_)) {
    ++batches_;
    records_ += pending_.size();
  }
  pending_.clear();
  if (flags == 0) {
    MaybeRotate();  // Only data batches trigger rotation; trailers never do.
  }
  return status_;
}

void SpoolWriter::MaybeRotate() {
  if (!rotating_ || !IsOk(status_) ||
      segment_bytes_ < rotation_.segment_bytes) {
    return;
  }
  // The stream continues: trailer, next segment, reclaim the oldest.
  // batch_seq_ and lost_total_ are stream state, untouched by rotation.
  (void)WriteBatch(kBatchFlagRotate);  // pending_ is empty here.
  if (!IsOk(status_)) {
    return;
  }
  ::close(fd_);
  fd_ = -1;
  ++segment_index_;
  if (!IsOk(OpenSegmentFile())) {
    return;  // Sticky: spooling degrades to a no-op, history stays on disk.
  }
  while (segment_index_ - first_segment_ + 1 > rotation_.max_segments) {
    (void)::unlink(SegmentPath(base_, first_segment_).c_str());
    ++first_segment_;
    ++segments_reclaimed_;
  }
}

void SpoolWriter::WriteAll(const void* data, size_t len) {
  if (!IsOk(status_)) {
    return;
  }
  const uint8_t* p = static_cast<const uint8_t*>(data);
  size_t put = 0;
  while (put < len) {
    const ssize_t n = ::write(fd_, p + put, len - put);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      status_ = Status::kUnavailable;
      VINO_LOG_WARN << "trace spool write failed (errno " << errno
                    << "); spooling disabled";
      return;
    }
    put += static_cast<size_t>(n);
  }
  bytes_ += len;
  segment_bytes_ += len;
}

// ---------------------------------------------------------------------------
// Reader.

Status StreamStatus(const ReadStats& stats) {
  if (stats.corrupt_batches > 0) {
    return Status::kSpoolCorrupt;
  }
  if (stats.truncated) {
    return Status::kSpoolTruncated;
  }
  return stats.segments == 0 ? Status::kNotFound : Status::kOk;
}

ChainedFollower::~ChainedFollower() { CloseFile(); }

Status ChainedFollower::Open(const std::string& path) {
  if (stats_.segments > 0) {
    return Status::kAlreadyExists;
  }
  if (dead_) {
    return Status::kSpoolCorrupt;
  }
  if (path_.empty()) {
    segmented_ = ParseSegmentPath(path, &base_, &index_);
    struct stat st;
    if (!segmented_ && ::stat(path.c_str(), &st) != 0) {
      // Not a file; maybe a segment base whose ring already exists.
      const std::vector<uint64_t> segments = ListSegments(path);
      if (segments.empty()) {
        return Status::kNotFound;
      }
      segmented_ = true;
      base_ = path;
      index_ = segments.front();
    }
    path_ = segmented_ ? SegmentPath(base_, index_) : path;
  }
  return OpenFile();
}

Status ChainedFollower::OpenFile() {
  const int fd = ::open(path_.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::kNotFound;
  }
  FileHeader header;
  const ssize_t n = PReadAll(fd, &header, sizeof(header), 0);
  if (n < static_cast<ssize_t>(sizeof(header))) {
    // Empty or short: the writer has not finished its header yet.
    ::close(fd);
    stats_.truncated = true;
    return Status::kSpoolTruncated;
  }
  if (header.magic != kFileMagic || header.version != kFormatVersion ||
      header.record_bytes != sizeof(trace::TaggedRecord)) {
    ::close(fd);
    dead_ = true;
    ++stats_.corrupt_batches;
    return Status::kSpoolCorrupt;
  }
  struct stat st;
  if (::fstat(fd, &st) == 0) {
    dev_ = static_cast<uint64_t>(st.st_dev);
    ino_ = static_cast<uint64_t>(st.st_ino);
  }
  fd_ = fd;
  offset_ = sizeof(header);
  ++stats_.segments;
  stats_.truncated = false;
  stats_.rotated = false;
  return Status::kOk;
}

void ChainedFollower::CloseFile() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void ChainedFollower::AdvanceTo(uint64_t index) {
  CloseFile();
  index_ = index;
  path_ = SegmentPath(base_, index_);
}

bool ChainedFollower::Displaced() const {
  struct stat st;
  if (::stat(path_.c_str(), &st) != 0) {
    return true;  // Unlinked or renamed away.
  }
  if (static_cast<uint64_t>(st.st_dev) != dev_ ||
      static_cast<uint64_t>(st.st_ino) != ino_) {
    return true;  // A different file sits at the path now.
  }
  return static_cast<uint64_t>(st.st_size) < offset_;  // Truncated under us.
}

Status ChainedFollower::ReadFile(std::vector<trace::TaggedRecord>& out) {
  for (;;) {
    BatchHeader header;
    ssize_t n = PReadAll(fd_, &header, sizeof(header), offset_);
    if (n == 0) {
      stats_.truncated = false;  // Clean batch boundary.
      return Status::kOk;
    }
    if (n < static_cast<ssize_t>(sizeof(header))) {
      stats_.truncated = true;  // Mid-header tail; retry next Poll.
      return Status::kOk;
    }
    if (header.magic != kBatchMagic || header.record_count > kMaxBatchRecords) {
      // Headers carry no CRC; an implausible one means the stream is
      // unrecoverable (lengths can no longer be trusted to resync).
      dead_ = true;
      ++stats_.corrupt_batches;
      return Status::kSpoolCorrupt;
    }
    const size_t at = out.size();
    const size_t payload_bytes =
        static_cast<size_t>(header.record_count) * sizeof(trace::TaggedRecord);
    out.resize(at + header.record_count);
    n = PReadAll(fd_, out.data() + at, payload_bytes, offset_ + sizeof(header));
    if (n < static_cast<ssize_t>(payload_bytes)) {
      out.resize(at);
      stats_.truncated = true;  // Mid-payload tail; retry next Poll.
      return Status::kOk;
    }
    offset_ += sizeof(header) + payload_bytes;
    // A fully framed batch means an earlier partial read was the writer
    // mid-append, not a torn tail: the flag describes the current end of
    // the stream, so it must not outlive the condition.
    stats_.truncated = false;
    // Continuity: every framed batch (intact or not) advances the expected
    // sequence; a mismatch is a hole in the stream. The stream's first
    // framed batch sets where it starts.
    if (stats_.batches + stats_.corrupt_batches == 0) {
      stats_.first_batch_seq = header.batch_seq;
    } else if (header.batch_seq != stats_.next_batch_seq) {
      ++stats_.seq_gaps;
    }
    stats_.next_batch_seq = header.batch_seq + 1;
    if (Crc32(out.data() + at, payload_bytes) != header.payload_crc) {
      // One flipped bit costs one batch: skip it, keep scanning — the
      // length prefix still frames the stream.
      out.resize(at);
      ++stats_.corrupt_batches;
      continue;
    }
    ++stats_.batches;
    stats_.records += header.record_count;
    stats_.lost_total = std::max(stats_.lost_total, header.lost_total);
    if ((header.flags & kBatchFlagClose) != 0) {
      stats_.closed = true;
      return Status::kOk;
    }
    if ((header.flags & kBatchFlagRotate) != 0) {
      stats_.rotated = true;  // Stream continues in the next segment.
      return Status::kOk;
    }
  }
}

Status ChainedFollower::Poll(std::vector<trace::TaggedRecord>& out) {
  if (dead_) {
    return Status::kSpoolCorrupt;
  }
  if (path_.empty()) {
    return Status::kUnavailable;  // Open has not resolved a path yet.
  }
  for (;;) {
    if (fd_ < 0) {
      const Status status = OpenFile();
      if (!IsOk(status)) {
        // Not there, or its header is short: retry on the next Poll.
        return status == Status::kSpoolCorrupt ? status : Status::kOk;
      }
    }
    const size_t before = out.size();
    const Status status = ReadFile(out);
    if (!IsOk(status) || stats_.closed) {
      return status;
    }
    if (stats_.rotated) {
      if (!segmented_) {
        return Status::kOk;  // A lone file cannot chain; stop at its end.
      }
      AdvanceTo(index_ + 1);
      continue;
    }
    if (out.size() != before || !Displaced()) {
      return Status::kOk;  // Made progress, or the tail is up to date.
    }
    if (!segmented_) {
      CloseFile();  // A replaced or truncated file: re-read it.
      continue;
    }
    // Our segment was reclaimed mid-read. Jump to the oldest survivor after
    // it; if the ring has nothing newer yet, keep waiting.
    const std::vector<uint64_t> segments = ListSegments(base_);
    const auto successor =
        std::upper_bound(segments.begin(), segments.end(), index_);
    if (successor == segments.end()) {
      return Status::kOk;
    }
    AdvanceTo(*successor);
  }
}

Status ReadSpoolChain(const std::string& path,
                      std::vector<trace::TaggedRecord>& out,
                      ReadStats* stats) {
  ChainedFollower follower;
  if (IsOk(follower.Open(path))) {
    (void)follower.Poll(out);
  }
  if (stats != nullptr) {
    *stats = follower.stats();
  }
  return StreamStatus(follower.stats());
}

// ---------------------------------------------------------------------------
// SpoolDrainer.

Result<std::unique_ptr<SpoolDrainer>> SpoolDrainer::Start(
    const Options& options) {
  if (options.path.empty() || options.min_interval_us == 0 ||
      options.max_interval_us < options.min_interval_us) {
    return Status::kInvalidArgs;
  }
  // make_unique needs a public constructor; new keeps it private.
  std::unique_ptr<SpoolDrainer> drainer(new SpoolDrainer(options));
  const Status open_status =
      options.rotation.segment_bytes > 0
          ? drainer->writer_.OpenRotating(options.path, options.rotation)
          : drainer->writer_.Open(options.path);
  if (!IsOk(open_status)) {
    return open_status;
  }
  drainer->thread_ = std::thread([raw = drainer.get()] { raw->Loop(); });
  return drainer;
}

SpoolDrainer::SpoolDrainer(const Options& options) : options_(options) {
  stats_.interval_us = options_.min_interval_us;
}

SpoolDrainer::~SpoolDrainer() { Stop(); }

void SpoolDrainer::Stop() {
  {
    std::lock_guard<std::mutex> guard(mutex_);
    if (stop_) {
      return;
    }
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) {
    thread_.join();
  }
  std::lock_guard<std::mutex> guard(mutex_);
  DrainOnceLocked();  // Catch records posted while the thread wound down.
  writer_.Close();
  stats_.writer_status = writer_.status();
}

void SpoolDrainer::DrainNow() {
  std::lock_guard<std::mutex> guard(mutex_);
  DrainOnceLocked();
}

SpoolDrainer::Stats SpoolDrainer::stats() const {
  std::lock_guard<std::mutex> guard(mutex_);
  return stats_;
}

void SpoolDrainer::Loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_) {
    const auto interval = std::chrono::microseconds(stats_.interval_us);
    cv_.wait_for(lock, interval, [this] { return stop_; });
    if (stop_) {
      return;  // Stop() runs the final drain after the join.
    }
    DrainOnceLocked();
  }
}

void SpoolDrainer::DrainOnceLocked() {
  const trace::DrainCursor::Stats drained = cursor_.DrainInto(writer_);
  writer_.set_lost_total(drained.lost_total);
  (void)writer_.Commit();

  ++stats_.drains;
  stats_.records += drained.records;
  stats_.lost_total = drained.lost_total;
  stats_.last_occupancy_permille = drained.max_occupancy_permille;
  stats_.batches = writer_.batches_written();
  stats_.bytes = writer_.bytes_written();
  stats_.segments = writer_.segments_created();
  stats_.segments_reclaimed = writer_.segments_reclaimed();
  stats_.writer_status = writer_.status();

  // Adaptive cadence: chase bursts, back off when idle. Multiplicative in
  // both directions so the interval settles within a few drains of a
  // workload shift.
  if (drained.max_occupancy_permille >= kHotOccupancyPermille) {
    stats_.interval_us = stats_.interval_us / 2 > options_.min_interval_us
                             ? stats_.interval_us / 2
                             : options_.min_interval_us;
  } else if (drained.max_occupancy_permille < kColdOccupancyPermille) {
    stats_.interval_us = stats_.interval_us * 2 < options_.max_interval_us
                             ? stats_.interval_us * 2
                             : options_.max_interval_us;
  }
}

// ---------------------------------------------------------------------------
// Environment derivation.

bool DeriveEnvSpoolOptions(SpoolDrainer::Options* options) {
  if (const char* bytes = std::getenv("VINO_SPOOL_SEGMENT_BYTES");
      bytes != nullptr && *bytes != '\0') {
    options->rotation.segment_bytes = std::strtoull(bytes, nullptr, 10);
  }
  if (const char* count = std::getenv("VINO_SPOOL_SEGMENTS");
      count != nullptr && *count != '\0') {
    const uint64_t v = std::strtoull(count, nullptr, 10);
    if (v > 0 && v <= UINT32_MAX) {
      options->rotation.max_segments = static_cast<uint32_t>(v);
    }
  }
  if (!options->path.empty()) {
    return true;  // Explicit path wins; rotation knobs still apply.
  }
  const char* dir = std::getenv("VINO_SPOOL");
  if (dir == nullptr || *dir == '\0') {
    return false;
  }
  // One spool stream per kernel per process: vspool.<pid>.<k>, where k
  // counts this process's spooling kernels. Plain files carry ".bin";
  // rotated streams use the bare name as the segment base
  // (vspool.<pid>.<k>.s<n>.bin on disk).
  static std::atomic<uint64_t> kernel_counter{0};
  const uint64_t k = kernel_counter.fetch_add(1, std::memory_order_relaxed);
  options->path = std::string(dir) + "/vspool." +
                  std::to_string(::getpid()) + "." + std::to_string(k);
  if (options->rotation.segment_bytes == 0) {
    options->path += ".bin";
  }
  return true;
}

}  // namespace spool
}  // namespace vino
