#ifndef PRORP_STORAGE_WAL_H_
#define PRORP_STORAGE_WAL_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "faults/fault_plan.h"

namespace prorp::storage {

/// Logical write-ahead-log record.  ProRP's history store is single-writer
/// and append-mostly, so logical redo logging (no undo, no pages in the
/// log) is sufficient: recovery = load last snapshot + replay the tail.
struct WalRecord {
  enum class Type : uint8_t {
    kInsert = 1,       // key + value bytes
    kDelete = 2,       // key
    kDeleteRange = 3,  // [lo, hi]
    kUpdate = 4,       // key + value bytes
  };

  Type type = Type::kInsert;
  int64_t key = 0;        // kInsert/kDelete/kUpdate; lo for kDeleteRange
  int64_t key2 = 0;       // hi for kDeleteRange
  std::vector<uint8_t> value;  // kInsert/kUpdate payload
};

/// Append-only write-ahead log on a single file.  Record framing:
///   [u32 payload_len][payload][u32 crc32(payload)]
/// Replay stops cleanly at the first truncated or corrupt record, which is
/// the expected state after a crash mid-append.  A zero length word also
/// ends the log (see the mapped tail below).
///
/// Mapped tail.  Frames are not written with write(2): they are copied
/// into a MAP_SHARED window over the end of the file, so an append makes
/// no system call.  Each window (kTailChunk bytes) is reserved with
/// posix_fallocate before it is mapped, so running out of space is an
/// IoError at the append that needs the window, never a SIGBUS.  The
/// bytes are in the page cache as soon as the copy returns, so a buffered
/// append survives process death (not power loss) just as a write(2)
/// would; Sync() ends in fsync, which also writes back pages dirtied
/// through the mapping.
///
/// Cut in place.  Truncate() and every rollback overwrite the bytes from
/// the cut to the last byte written with zeros and keep the file's size:
/// the reserved blocks and their cached pages serve the appends that
/// follow, so a checkpoint cycle (fill, cut, refill) makes no fallocate
/// and no ftruncate, and the zeros reach the disk with the log's next
/// fsync, as a shrunken size would.  Invariants:
///  * bytes past the logical end are zeros or one torn frame prefix,
///    never a stale intact frame: cuts zero what they drop, and new
///    windows come from fallocate (zeros);
///  * SizeBytes() is the logical end, not the preallocated file size;
///  * Open() scans the log and appends right behind the last intact
///    frame, so a log left by a dead process (zero-filled tail, maybe a
///    torn prefix) is appendable with or without a Replay first;
///  * a clean close (the destructor) cuts the file back to the bytes
///    written, so a closed log holds its frames and nothing else.
///
/// Thread safety: every public entry point takes one mutex, so a log may
/// be shared across threads.  Each log has one writer in practice (a
/// database's history store, the management service's journal); a
/// durable append is Append followed by Sync, and concurrent durable
/// appenders serialize, each paying its own fsync.
class WriteAheadLog {
 public:
  /// Bytes reserved and mapped per tail window.  Small on purpose: the
  /// window's touched pages count toward the process's resident set.
  static constexpr uint64_t kTailChunk = 64 * 1024;

  /// Frame of a kInsert record with an n-byte value:
  ///   [u32 len][u8 type][i64 key][u32 n][value][u32 crc32]
  /// A caller that appends many small records (the control-plane
  /// journal) encodes this frame itself into a stack buffer: it writes
  /// the value at kInsertValueOffset, calls SealInsertFrame, and appends
  /// the result with AppendFrame.  The bytes equal Append's encoding.
  static constexpr size_t kInsertValueOffset = 4 + 1 + 8 + 4;
  static constexpr size_t InsertFrameBytes(size_t value_bytes) {
    return kInsertValueOffset + value_bytes + 4;
  }
  /// Fills in the length words, type, key and CRC of a kInsert frame
  /// whose `value_bytes`-byte value is already at kInsertValueOffset.
  static void SealInsertFrame(int64_t key, size_t value_bytes,
                              uint8_t* frame);

  /// Opens (creating if necessary) the log file at `path` for appending,
  /// behind its last intact frame; anything after that frame is cut off.
  static Result<std::unique_ptr<WriteAheadLog>> Open(const std::string& path);

  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Appends a record to the page cache (no fsync).  On a short write
  /// (disk full, injected fault) the file is cut back to the pre-append
  /// end so the torn frame cannot make later appends unreachable at
  /// replay time.
  Status Append(const WalRecord& record);

  /// Appends one frame built with SealInsertFrame; same contract as
  /// Append.
  Status AppendFrame(const uint8_t* frame, size_t size);

  /// Forces the log to stable storage.
  Status Sync();

  /// Cuts the log to its first `size` bytes (default: empties it after a
  /// checkpoint has captured its effects) by zeroing the bytes behind it
  /// in place, and unmaps the tail.  A `size` inside a frame models a
  /// write torn by a crash: replay stops before that frame.
  /// InvalidArgument if `size` exceeds SizeBytes().
  Status Truncate(uint64_t size = 0);

  /// Replays all intact records in `path` in order.  Returns the number of
  /// records replayed.  A trailing torn record is not an error: it is
  /// trimmed off the file.  A zero-filled tail (a mapped writer's
  /// reservation) is left in place, since a live writer may own it.
  static Result<uint64_t> Replay(
      const std::string& path,
      const std::function<Status(const WalRecord&)>& apply);

  /// Logical log size in bytes: the end of the last appended frame.
  Result<uint64_t> SizeBytes() const;

  /// Attaches a fault plan consulted on every append (kWalAppend) and
  /// sync (kWalSync).  `plan` must outlive this log; pass nullptr to
  /// detach.
  void set_fault_plan(faults::FaultPlan* plan) { fault_plan_ = plan; }

 private:
  WriteAheadLog(int fd, std::string path, uint64_t end)
      : fd_(fd),
        path_(std::move(path)),
        end_(end),
        written_end_(end),
        file_size_(end) {}

  /// The append body: crash point, fault plan, copy, rollback.  Caller
  /// holds `mu_`.
  Status AppendLocked(const uint8_t* frame, size_t size);

  /// The one frame writer: copies `n` bytes to file offset `offset`
  /// through the mapped tail, mapping a new window first if needed.
  /// Does not move the logical end.  IoError (nothing copied) if the
  /// window cannot be reserved or mapped.
  Status CopyAt(uint64_t offset, const uint8_t* bytes, size_t n);

  /// Makes [offset, offset + n) part of the mapped window.
  Status MapTail(uint64_t offset, size_t n);
  void Unmap();

  /// Flips one bit of the frame just copied to `offset` (fault kBitFlip).
  void FlipBit(uint64_t offset, uint64_t bit);

  /// Unmaps the tail and zeros the bytes written behind `offset`; the
  /// logical end becomes `offset`.  The file keeps its size.
  Status CutTo(uint64_t offset);

  int fd_;
  std::string path_;
  faults::FaultPlan* fault_plan_ = nullptr;

  // The tail.  Read and written only by the holder of `mu_`.
  uint8_t* map_ = nullptr;  // window [map_off_, map_off_ + map_len_)
  uint64_t map_off_ = 0;
  uint64_t map_len_ = 0;
  uint64_t end_;          // logical end: behind the last whole frame
  uint64_t written_end_;  // behind the last byte copied (>= end_)
  uint64_t file_size_;    // file length, preallocated windows included
  std::vector<uint8_t> scratch_;  // Append's encoding buffer

  mutable std::mutex mu_;
};

}  // namespace prorp::storage

#endif  // PRORP_STORAGE_WAL_H_
