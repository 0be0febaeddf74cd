// Continuous trace spooling: the flight recorder, made durable.
//
// The per-thread rings (src/base/trace.h) keep only the most recent ~4096
// records per thread — enough to explain the last abort, not enough to
// attribute costs over a long deployment (ROADMAP: "long traced runs
// wrap"). This layer closes that gap with three pieces:
//
//  1. A versioned, CRC-checked, length-prefixed binary *spool format*:
//     a 16-byte file header followed by self-describing batches of
//     TaggedRecords. Batches carry a monotonic sequence number and the
//     drainer's cumulative loss counter, so a reader always knows how much
//     history it is missing, and a torn tail or a flipped bit costs one
//     batch, never the file.
//  2. SpoolWriter / ChainedFollower: the durable TraceSink and the one
//     reader. The writer is steady-state allocation-free (fixed batch
//     buffer, raw fd writes). The reader follows one logical stream across
//     segment files, keeps one set of stream-wide ReadStats, and tolerates
//     truncated tails, corrupt batches and empty files — partial parse
//     with a status, never a crash. It replays a finished spool
//     (ReadSpoolChain) and tails a live one (`graftstat --follow`), and
//     StreamStatus gives every caller the same verdict on how it ended.
//  3. SpoolDrainer: a background thread owned by VinoKernel that
//     periodically DrainInto()s the rings through a DrainCursor into a
//     SpoolWriter. Cadence is adaptive: drain-time ring occupancy above
//     the hot threshold halves the sleep (down to min), occupancy below
//     the cold threshold doubles it (up to max) — bursty workloads get
//     drained before rings wrap, idle ones cost one cheap scan per max
//     interval. Writers never see the drainer: they keep posting with
//     relaxed stores; all coordination is the rings' existing lock-free
//     snapshot protocol.
//
// Format (all fields native-endian; record_bytes pins the layout):
//
//   FileHeader  { magic "VINOSPL1", version u32, record_bytes u32 }
//   Batch*      { BatchHeader, TaggedRecord[record_count] }
//   BatchHeader { magic "BTCH", flags u32, batch_seq u64, lost_total u64,
//                 record_count u32, payload_crc u32 }
//
// A batch with kBatchFlagClose set is the writer's trailer: the spool was
// closed cleanly and a follower may stop waiting for more.
//
// Versions. The version names what the records mean, not only their
// layout. Version 2: an invocation posts one kInvokeEnd record (stamped at
// its start, with its duration and the locks its transaction held), and no
// kInvokeBegin or kTxn* records. Version 1 posted all four per grafted
// invocation; a reader refuses it (kSpoolCorrupt, like any unknown
// version) rather than count its invocations and transactions twice.
//
// Rotation (format-compatible extension): a writer opened with
// OpenRotating() splits the stream into size-capped segment files
// `<base>.s<n>.bin`, each a self-contained spool (own FileHeader). A
// segment that was rotated away ends with a zero-record kBatchFlagRotate
// trailer — "the stream continues in the next segment". batch_seq and
// lost_total are properties of the *stream*, not the segment, so they run
// continuously across the boundary and replay accounting stays exact; a
// reader chaining segments verifies the sequence is gap-free (reclaimed
// segments at the front show up as a nonzero first_batch_seq, never as a
// silent hole). Old readers treat a rotate trailer like any zero-record
// batch and simply stop at the segment's end.

#ifndef VINOLITE_SRC_BASE_TRACE_SPOOL_H_
#define VINOLITE_SRC_BASE_TRACE_SPOOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/base/status.h"
#include "src/base/trace.h"

namespace vino {
namespace spool {

// "VINOSPL1" read as a little-endian u64.
inline constexpr uint64_t kFileMagic = 0x314C50534F4E4956ull;
inline constexpr uint32_t kFormatVersion = 2;
// "BTCH" read as a little-endian u32.
inline constexpr uint32_t kBatchMagic = 0x48435442u;
inline constexpr uint32_t kBatchFlagClose = 1u << 0;
// Zero-record trailer of a rotated-away segment: the stream continues in
// the next segment of the ring (`<base>.s<n+1>.bin`).
inline constexpr uint32_t kBatchFlagRotate = 1u << 1;
// Upper bound a reader will believe; also the writer's auto-flush point.
// 4096 records × 48 B ≈ 192 KiB per batch.
inline constexpr uint32_t kMaxBatchRecords = 4096;

struct FileHeader {
  uint64_t magic = kFileMagic;
  uint32_t version = kFormatVersion;
  uint32_t record_bytes = sizeof(trace::TaggedRecord);
};
static_assert(sizeof(FileHeader) == 16, "spool file header is 16 bytes");

struct BatchHeader {
  uint32_t magic = kBatchMagic;
  uint32_t flags = 0;
  uint64_t batch_seq = 0;
  uint64_t lost_total = 0;  // Drainer's cumulative ring-wrap loss so far.
  uint32_t record_count = 0;
  uint32_t payload_crc = 0;  // CRC-32 (IEEE) of the payload bytes.
};
static_assert(sizeof(BatchHeader) == 32, "spool batch header is 32 bytes");
static_assert(std::is_trivially_copyable_v<trace::TaggedRecord> &&
                  sizeof(trace::TaggedRecord) == 48,
              "spool payload is flat 48-byte TaggedRecords");

// Standard CRC-32 (IEEE 802.3, reflected, init/xorout 0xFFFFFFFF):
// Crc32("123456789") == 0xCBF43926.
[[nodiscard]] uint32_t Crc32(const void* data, size_t len);

// ---------------------------------------------------------------------------
// Segment naming.
//
// A rotated stream's segment `n` lives at `<base>.s<n>.bin`. The `.s`
// infix keeps segments distinguishable from the kernel's single-file
// spools (`vspool.<pid>.<k>.bin`), whose trailing dot-fields would
// otherwise parse as a segment index.

[[nodiscard]] std::string SegmentPath(const std::string& base, uint64_t index);

// Parses `path` as a segment path. On success fills `base`/`index` and
// returns true; a plain (unrotated) spool path returns false.
[[nodiscard]] bool ParseSegmentPath(const std::string& path, std::string* base,
                                    uint64_t* index);

// Lists the indices of existing segments of `base`, sorted ascending.
// Returns an empty vector when none exist (or the directory is unreadable).
[[nodiscard]] std::vector<uint64_t> ListSegments(const std::string& base);

// ---------------------------------------------------------------------------
// Writer.

// The durable TraceSink. OnRecord appends to a fixed in-memory batch;
// Commit() writes the pending records as one CRC'd batch; Close() commits
// and appends the close trailer. Errors (disk full, bad path) are sticky:
// the first failure is kept in status() and later writes become no-ops, so
// a dying disk can never take the traced kernel down with it.
//
// Steady-state allocation-free after Open(): the batch buffer is reserved
// once and raw ::write() bypasses stdio's lazily-allocated buffering (the
// alloc_test gate covers a live drainer).
class SpoolWriter : public trace::TraceSink {
 public:
  SpoolWriter() = default;
  ~SpoolWriter() override;

  SpoolWriter(const SpoolWriter&) = delete;
  SpoolWriter& operator=(const SpoolWriter&) = delete;

  // Size-capped segment ring. With rotation active the writer checks the
  // current segment's size after every data batch; at or past the cap it
  // appends a kBatchFlagRotate trailer, opens `<base>.s<n+1>.bin`, and
  // unlinks the oldest segment once more than `max_segments` are live.
  // Rotation is the one non-steady-state path that allocates (one path
  // string per segment) — it is cold by construction.
  struct Rotation {
    uint64_t segment_bytes = 0;  // Rotate at/past this size; 0 = never.
    uint32_t max_segments = 8;   // Live segments kept; oldest reclaimed.
  };

  // Creates/truncates `path` and writes the file header.
  Status Open(const std::string& path);

  // Rotating variant: segments live at `<base>.s<n>.bin`, starting at s0.
  // rotation.segment_bytes and rotation.max_segments must be nonzero.
  Status OpenRotating(const std::string& base, const Rotation& rotation);

  // Buffers one record; auto-commits when the batch reaches
  // kMaxBatchRecords.
  void OnRecord(const trace::TaggedRecord& record) override;

  // The loss counter stamped into subsequent batch headers (monotonic;
  // the drainer refreshes it after every ring scan).
  void set_lost_total(uint64_t lost_total) { lost_total_ = lost_total; }

  // Flushes the pending batch, if any.
  Status Commit();

  // Commit + close trailer + fdatasync + close. Idempotent.
  Status Close();

  [[nodiscard]] Status status() const { return status_; }
  [[nodiscard]] uint64_t batches_written() const { return batches_; }
  [[nodiscard]] uint64_t records_written() const { return records_; }
  [[nodiscard]] uint64_t bytes_written() const { return bytes_; }

  // Rotation observability. For a non-rotating writer: 1 / 0 / 0.
  [[nodiscard]] uint64_t segments_created() const {
    return rotating_ ? segment_index_ + 1 : 1;
  }
  [[nodiscard]] uint64_t segments_reclaimed() const {
    return segments_reclaimed_;
  }
  [[nodiscard]] uint64_t first_segment() const { return first_segment_; }

 private:
  Status WriteBatch(uint32_t flags);
  void WriteAll(const void* data, size_t len);
  Status OpenSegmentFile();
  void MaybeRotate();

  int fd_ = -1;
  Status status_ = Status::kOk;
  std::vector<trace::TaggedRecord> pending_;
  uint64_t lost_total_ = 0;
  uint64_t batch_seq_ = 0;
  uint64_t batches_ = 0;
  uint64_t records_ = 0;
  uint64_t bytes_ = 0;

  // Rotation state (rotating_ == false for plain Open()).
  bool rotating_ = false;
  Rotation rotation_;
  std::string base_;
  uint64_t segment_index_ = 0;   // Segment currently being written.
  uint64_t first_segment_ = 0;   // Oldest segment still on disk.
  uint64_t segment_bytes_ = 0;   // Bytes written into the current segment.
  uint64_t segments_reclaimed_ = 0;
};

// ---------------------------------------------------------------------------
// Reader.

struct ReadStats {
  uint64_t batches = 0;          // Intact batches delivered.
  uint64_t corrupt_batches = 0;  // CRC failures skipped, or the untrusted
                                 // header that stopped the scan.
  uint64_t records = 0;
  uint64_t lost_total = 0;  // Highest loss counter seen in a batch header.
  bool truncated = false;   // The tail ends mid-header or mid-payload.
  bool closed = false;      // The writer's close trailer was seen.
  bool rotated = false;     // Ends with a rotate trailer (stream continues).
  uint64_t segments = 0;    // Files opened into this view.
  // batch_seq continuity: the stream's sequence numbers run from
  // first_batch_seq (nonzero when reclaimed segments are missing from the
  // front of the ring) to next_batch_seq - 1; seq_gaps counts framed
  // batches that broke the expected sequence (a hole mid-stream).
  uint64_t first_batch_seq = 0;
  uint64_t next_batch_seq = 0;
  uint64_t seq_gaps = 0;
};

// How a stream read so far ends; every reader reports this one verdict:
//   kSpoolCorrupt    a batch failed its CRC, or a header could not be
//                    trusted and the scan stopped there,
//   kSpoolTruncated  the tail ends mid-header or mid-batch (a torn write,
//                    or a live writer mid-append),
//   kNotFound        no file of the stream has been opened,
//   kOk              a close trailer or a clean batch boundary.
[[nodiscard]] Status StreamStatus(const ReadStats& stats);

// Reads one logical stream: a plain spool file, a single segment
// (`<base>.s<n>.bin`), or a bare segment base (the lowest existing segment
// is picked up; after reclamation that is not s0, and first_batch_seq says
// how much history the ring already dropped).
//
// Poll() delivers every complete, intact batch appended since the previous
// Poll and leaves a partial tail for next time, so it both replays a
// finished spool and tails a live one (`graftstat --follow`). At a rotate
// trailer it moves on to the next segment; a successor that does not exist
// yet, or whose header has not fully landed, is retried on the next Poll.
// When nothing new is readable it checks whether the path still names the
// open file: a segment reclaimed under the reader jumps to the oldest
// surviving successor, and a plain file renamed, replaced or truncated
// underneath is re-read from its header (a restarted writer is a new
// stream, so its batch_seq reset counts as a seq gap).
class ChainedFollower {
 public:
  ChainedFollower() = default;
  ~ChainedFollower();

  ChainedFollower(const ChainedFollower&) = delete;
  ChainedFollower& operator=(const ChainedFollower&) = delete;

  // Opens the stream's first file. kNotFound while it does not exist yet,
  // kSpoolTruncated while its header is short: both leave the follower
  // re-openable (retries must pass the same path). kSpoolCorrupt for a bad
  // magic, version or record size.
  Status Open(const std::string& path);

  // Appends the records of every complete, intact batch now available.
  // Returns kOk (more may come), or kSpoolCorrupt once a header that cannot
  // be trusted has stopped the scan (lengths can no longer resynchronize).
  Status Poll(std::vector<trace::TaggedRecord>& out);

  [[nodiscard]] const ReadStats& stats() const { return stats_; }
  [[nodiscard]] bool closed() const { return stats_.closed; }

 private:
  Status OpenFile();
  void CloseFile();
  // Closes the current file and targets segment `index` of the ring.
  void AdvanceTo(uint64_t index);
  // Reads batches from the open file until its end, a partial tail, or a
  // close or rotate trailer.
  Status ReadFile(std::vector<trace::TaggedRecord>& out);
  // True when path_ no longer names the open file: unlinked, renamed away,
  // replaced, or truncated below what was already consumed.
  [[nodiscard]] bool Displaced() const;

  bool segmented_ = false;
  std::string base_;    // Segment base (segmented_ only).
  uint64_t index_ = 0;  // Current segment index (segmented_ only).
  std::string path_;    // The file being read.

  int fd_ = -1;
  uint64_t offset_ = 0;  // First byte of the open file not yet consumed.
  uint64_t dev_ = 0;     // Identity of the open file, for Displaced().
  uint64_t ino_ = 0;

  bool dead_ = false;  // An untrusted header stopped the scan for good.
  ReadStats stats_;
};

// One-shot: open (file, segment, or base), drain every available segment
// to its end, and return StreamStatus. Intact batches are always appended
// to `out`. A chain whose next segment does not exist yet ends kOk at a
// clean batch boundary, exactly like a live single file.
Status ReadSpoolChain(const std::string& path,
                      std::vector<trace::TaggedRecord>& out,
                      ReadStats* stats = nullptr);

// ---------------------------------------------------------------------------
// Drainer.

// The background thread that turns the flight recorder into a durable
// pipeline: DrainCursor → SpoolWriter on an occupancy-adaptive cadence.
class SpoolDrainer {
 public:
  struct Options {
    // Spool file path. Leaving it empty and setting the VINO_SPOOL
    // environment variable to a directory makes VinoKernel derive a
    // per-kernel path under it (DeriveEnvSpoolOptions below). With
    // rotation active, `path` is the segment *base*: segments are
    // written to `<path>.s<n>.bin`.
    std::string path;

    // Size-capped segment ring; segment_bytes == 0 spools to one file.
    SpoolWriter::Rotation rotation;

    // Cadence bounds. The drainer sleeps `interval`, starting at min;
    // after each drain the interval halves (≥ min) when the fullest ring
    // was ≥ kHotOccupancyPermille pending, doubles (≤ max) when
    // < kColdOccupancyPermille.
    uint64_t min_interval_us = 2'000;
    uint64_t max_interval_us = 100'000;
  };
  static constexpr uint32_t kHotOccupancyPermille = 500;
  static constexpr uint32_t kColdOccupancyPermille = 125;

  struct Stats {
    uint64_t drains = 0;
    uint64_t records = 0;
    uint64_t batches = 0;
    uint64_t bytes = 0;
    uint64_t lost_total = 0;   // Ring-wrap loss the drainer arrived late for.
    uint64_t interval_us = 0;  // Current adaptive sleep.
    uint64_t segments = 0;     // Segment files created (1 without rotation).
    uint64_t segments_reclaimed = 0;  // Oldest segments unlinked at the cap.
    uint32_t last_occupancy_permille = 0;
    Status writer_status = Status::kOk;
  };

  // Opens the spool and starts the thread. Fails (with the writer's open
  // status) without leaking a thread.
  [[nodiscard]] static Result<std::unique_ptr<SpoolDrainer>> Start(
      const Options& options);

  ~SpoolDrainer();  // Stop().

  SpoolDrainer(const SpoolDrainer&) = delete;
  SpoolDrainer& operator=(const SpoolDrainer&) = delete;

  // Final drain, close trailer, join. Idempotent.
  void Stop();

  // One synchronous drain cycle (tests, and deterministic spooling in
  // graftstat --spool-out). Safe against the background thread.
  void DrainNow();

  [[nodiscard]] Stats stats() const;

  [[nodiscard]] const std::string& path() const { return options_.path; }

 private:
  explicit SpoolDrainer(const Options& options);

  void Loop();
  void DrainOnceLocked();

  Options options_;

  // Guards cursor_, writer_, and stats_ against DrainNow/Stop racing the
  // background thread. Never touched by trace writers.
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
  trace::DrainCursor cursor_;
  SpoolWriter writer_;
  Stats stats_;

  std::thread thread_;
};

// Applies the spooling environment to `options` and returns true when
// spooling is requested:
//   VINO_SPOOL=<dir>              derive a per-kernel path under <dir> —
//                                 `vspool.<pid>.<k>` where k counts the
//                                 process's spooling kernels,
//   VINO_SPOOL_SEGMENT_BYTES=<n>  rotate segments at n bytes (0 = off),
//   VINO_SPOOL_SEGMENTS=<m>       keep at most m live segments (default 8).
// Without rotation the derived path gets a ".bin" suffix (a plain spool
// file); with rotation it is the segment base (`vspool.<pid>.<k>.s<n>.bin`
// on disk). An explicitly non-empty options->path is left alone; the
// rotation variables still apply. Used by VinoKernel and by graftstat's
// self-test workload, so any spool-emitting process obeys the same knobs.
bool DeriveEnvSpoolOptions(SpoolDrainer::Options* options);

}  // namespace spool
}  // namespace vino

#endif  // VINOLITE_SRC_BASE_TRACE_SPOOL_H_
