#include "storage/wal.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "faults/crash_points.h"
#include "storage/crc32.h"
#include "storage/io_util.h"

namespace prorp::storage {
namespace {

uint8_t* PutU32(uint8_t* p, uint32_t v) {
  std::memcpy(p, &v, 4);
  return p + 4;
}

uint8_t* PutI64(uint8_t* p, int64_t v) {
  std::memcpy(p, &v, 8);
  return p + 8;
}

uint32_t GetU32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

int64_t GetI64(const uint8_t* p) {
  int64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

bool HasValue(WalRecord::Type type) {
  return type == WalRecord::Type::kInsert || type == WalRecord::Type::kUpdate;
}

/// Encodes `r` as one frame into `out` (resized to fit, so a reused
/// buffer stops allocating once it has seen the largest record).
void EncodeFrame(const WalRecord& r, std::vector<uint8_t>* out) {
  size_t payload = 1 + 8;
  if (r.type == WalRecord::Type::kDeleteRange) payload += 8;
  if (HasValue(r.type)) payload += 4 + r.value.size();
  out->resize(4 + payload + 4);
  uint8_t* p = PutU32(out->data(), static_cast<uint32_t>(payload));
  *p++ = static_cast<uint8_t>(r.type);
  p = PutI64(p, r.key);
  if (r.type == WalRecord::Type::kDeleteRange) p = PutI64(p, r.key2);
  if (HasValue(r.type)) {
    p = PutU32(p, static_cast<uint32_t>(r.value.size()));
    if (!r.value.empty()) std::memcpy(p, r.value.data(), r.value.size());
    p += r.value.size();
  }
  PutU32(p, Crc32(out->data() + 4, payload));
}

/// Checks one payload and, when `out` is non-null, decodes it.
Status DecodePayload(const uint8_t* p, size_t len, WalRecord* out) {
  if (len < 9) return Status::Corruption("WAL payload too short");
  WalRecord::Type type = static_cast<WalRecord::Type>(p[0]);
  size_t off = 9;
  int64_t key2 = 0;
  uint32_t vlen = 0;
  switch (type) {
    case WalRecord::Type::kDelete:
      break;
    case WalRecord::Type::kDeleteRange:
      if (len < off + 8) return Status::Corruption("truncated range record");
      key2 = GetI64(p + off);
      off += 8;
      break;
    case WalRecord::Type::kInsert:
    case WalRecord::Type::kUpdate:
      if (len < off + 4) return Status::Corruption("truncated value length");
      vlen = GetU32(p + off);
      off += 4;
      if (len < off + vlen) return Status::Corruption("truncated value");
      off += vlen;
      break;
    default:
      return Status::Corruption("unknown WAL record type");
  }
  if (off != len) return Status::Corruption("trailing bytes in WAL record");
  if (out != nullptr) {
    out->type = type;
    out->key = GetI64(p + 1);
    out->key2 = key2;
    out->value.assign(p + off - vlen, p + off);
  }
  return Status::OK();
}

constexpr size_t kReadChunk = 64 * 1024;

/// Sequential reader handing out a log's bytes from large reads, so a
/// scan costs one read(2) per 64 KiB instead of two per frame.
class FrameReader {
 public:
  explicit FrameReader(int fd) : fd_(fd) {}

  /// Points `*bytes` at the next `n` bytes; false when fewer than `n`
  /// remain before end of file.
  Result<bool> Next(size_t n, const uint8_t** bytes) {
    if (len_ - pos_ < n) {
      if (pos_ > 0) {
        std::memmove(buf_.data(), buf_.data() + pos_, len_ - pos_);
        len_ -= pos_;
        pos_ = 0;
      }
      if (buf_.size() < n) buf_.resize(std::max<size_t>(n, kReadChunk));
      PRORP_ASSIGN_OR_RETURN(
          size_t got, io::ReadUpTo(fd_, buf_.data() + len_,
                                   buf_.size() - len_, "WAL replay"));
      len_ += got;
      if (len_ < n) return false;
    }
    *bytes = buf_.data() + pos_;
    pos_ += n;
    return true;
  }

 private:
  int fd_;
  std::vector<uint8_t> buf_;
  size_t pos_ = 0;
  size_t len_ = 0;
};

struct ScanResult {
  uint64_t records = 0;
  uint64_t valid_end = 0;  // file offset just past the last intact frame
};

/// Walks the intact frames of the log from its start, handing each one to
/// `apply` when given.  Stops at end of file, a zero length word (the
/// zero-filled tail of a mapped writer), or the first torn or corrupt
/// frame.
Result<ScanResult> ScanFrames(
    int fd, const std::function<Status(const WalRecord&)>* apply) {
  FrameReader reader(fd);
  ScanResult scan;
  WalRecord rec;
  for (;;) {
    const uint8_t* lenbuf = nullptr;
    PRORP_ASSIGN_OR_RETURN(bool more, reader.Next(4, &lenbuf));
    if (!more) break;                   // clean end or torn length word
    uint32_t len = GetU32(lenbuf);
    if (len == 0) break;                // zero-filled tail: end of log
    if (len > (1u << 24)) break;        // implausible: treat as torn tail
    const uint8_t* body = nullptr;
    PRORP_ASSIGN_OR_RETURN(more, reader.Next(len + 4, &body));
    if (!more) break;                   // torn tail
    if (Crc32(body, len) != GetU32(body + len)) break;  // torn tail
    if (!DecodePayload(body, len, apply != nullptr ? &rec : nullptr).ok()) {
      break;
    }
    if (apply != nullptr) PRORP_RETURN_IF_ERROR((*apply)(rec));
    ++scan.records;
    scan.valid_end += 4 + static_cast<uint64_t>(len) + 4;
  }
  return scan;
}

/// Whether every byte of the file from `offset` to its end is zero.
Result<bool> OnlyZerosFrom(int fd, uint64_t offset) {
  if (::lseek(fd, static_cast<off_t>(offset), SEEK_SET) < 0) {
    return Status::IoError("WAL lseek failed");
  }
  std::vector<uint8_t> buf(kReadChunk);
  for (;;) {
    PRORP_ASSIGN_OR_RETURN(
        size_t got, io::ReadUpTo(fd, buf.data(), buf.size(), "WAL replay"));
    if (got == 0) return true;
    if (std::any_of(buf.begin(), buf.begin() + static_cast<long>(got),
                    [](uint8_t b) { return b != 0; })) {
      return false;
    }
  }
}

uint64_t PageSize() {
  static const uint64_t page = static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
  return page;
}

}  // namespace

void WriteAheadLog::SealInsertFrame(int64_t key, size_t value_bytes,
                                    uint8_t* frame) {
  const size_t payload = kInsertValueOffset - 4 + value_bytes;
  uint8_t* p = PutU32(frame, static_cast<uint32_t>(payload));
  *p++ = static_cast<uint8_t>(WalRecord::Type::kInsert);
  p = PutI64(p, key);
  PutU32(p, static_cast<uint32_t>(value_bytes));
  PutU32(frame + 4 + payload, Crc32(frame + 4, payload));
}

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(
    const std::string& path) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IoError("open WAL failed: " +
                           std::string(strerror(errno)));
  }
  // Append behind the last intact frame, and cut off whatever follows it
  // (a torn prefix, a dead writer's zero-filled reservation, intact
  // frames behind a corrupt one), so no old frame can replay behind the
  // new ones.
  Result<ScanResult> scan = ScanFrames(fd, nullptr);
  Status s = scan.status();
  if (s.ok() && ::ftruncate(fd, static_cast<off_t>(scan->valid_end)) != 0) {
    s = Status::IoError("trimming WAL tail failed");
  }
  if (!s.ok()) {
    ::close(fd);
    return s;
  }
  return std::unique_ptr<WriteAheadLog>(
      new WriteAheadLog(fd, path, scan->valid_end));
}

WriteAheadLog::~WriteAheadLog() {
  std::lock_guard<std::mutex> lock(mu_);
  Unmap();
  // A clean close gives back the preallocated zeros past the last byte
  // written (a torn prefix left by a simulated crash stays).
  if (file_size_ > written_end_) {
    (void)!::ftruncate(fd_, static_cast<off_t>(written_end_));
  }
  if (fd_ >= 0) ::close(fd_);
}

Status WriteAheadLog::MapTail(uint64_t offset, size_t n) {
  if (map_ != nullptr && offset >= map_off_ &&
      offset + n <= map_off_ + map_len_) {
    return Status::OK();
  }
  Unmap();
  const uint64_t page = PageSize();
  const uint64_t start = offset - offset % page;
  const uint64_t need = offset + n - start;
  const uint64_t len =
      (std::max(need, kTailChunk) + page - 1) / page * page;
  if (start + len > file_size_) {
    // Reserve the blocks before mapping them: a store into a mapped page
    // the file system cannot back raises SIGBUS, an fallocate fails.
    int err = ::posix_fallocate(fd_, static_cast<off_t>(start),
                                static_cast<off_t>(len));
    if (err != 0) {
      // A failed reservation may have grown the file; give that back.
      (void)!::ftruncate(fd_, static_cast<off_t>(file_size_));
      if (err == ENOSPC) {
        return Status::IoError("WAL append failed: disk full (ENOSPC)");
      }
      return Status::IoError("WAL preallocation failed: " +
                             std::string(strerror(err)));
    }
    file_size_ = start + len;
  }
  void* p = ::mmap(nullptr, len, PROT_READ | PROT_WRITE, MAP_SHARED, fd_,
                   static_cast<off_t>(start));
  if (p == MAP_FAILED) {
    return Status::IoError("WAL mmap failed: " +
                           std::string(strerror(errno)));
  }
  map_ = static_cast<uint8_t*>(p);
  map_off_ = start;
  map_len_ = len;
  return Status::OK();
}

void WriteAheadLog::Unmap() {
  if (map_ == nullptr) return;
  ::munmap(map_, map_len_);
  map_ = nullptr;
  map_off_ = 0;
  map_len_ = 0;
}

Status WriteAheadLog::CopyAt(uint64_t offset, const uint8_t* bytes,
                             size_t n) {
  if (n == 0) return Status::OK();
  PRORP_RETURN_IF_ERROR(MapTail(offset, n));
  std::memcpy(map_ + (offset - map_off_), bytes, n);
  written_end_ = std::max(written_end_, offset + n);
  return Status::OK();
}

void WriteAheadLog::FlipBit(uint64_t offset, uint64_t bit) {
  map_[offset - map_off_ + bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
}

Status WriteAheadLog::CutTo(uint64_t offset) {
  Unmap();
  // Zeroing in place keeps the reserved blocks and their cached pages for
  // the appends that refill them: no fallocate, no file-system flush.
  if (written_end_ > offset) {
    PRORP_RETURN_IF_ERROR(
        io::WriteZeros(fd_, offset, written_end_ - offset, "WAL truncate"));
  }
  end_ = written_end_ = offset;
  return Status::OK();
}

Status WriteAheadLog::Append(const WalRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  EncodeFrame(record, &scratch_);
  return AppendLocked(scratch_.data(), scratch_.size());
}

Status WriteAheadLog::AppendFrame(const uint8_t* frame, size_t size) {
  std::lock_guard<std::mutex> lock(mu_);
  return AppendLocked(frame, size);
}

Status WriteAheadLog::AppendLocked(const uint8_t* frame, size_t size) {
  const uint64_t start = end_;

  // Crash simulation: the process dies mid-append.  A prefix of the frame
  // (chosen by the armed payload) reaches the file and nothing cleans it
  // up — exactly the torn tail recovery must cope with.
  if (Status crash = faults::HitCrashPoint(faults::kWalAppendPartial);
      !crash.ok()) {
    uint64_t cut = faults::CrashPointRegistry::Global().payload() % size;
    (void)CopyAt(start, frame, cut);
    return crash;
  }

  size_t intend = size;
  bool disk_full = false;
  bool flip = false;
  uint64_t flip_bit = 0;
  if (fault_plan_ != nullptr) {
    if (auto d = fault_plan_->Next(faults::FaultOp::kWalAppend)) {
      switch (d->kind) {
        case faults::FaultKind::kIoError:
          return Status::IoError("injected WAL append fault");
        case faults::FaultKind::kTornWrite:
          intend = d->arg % size;  // live short write, not a crash
          break;
        case faults::FaultKind::kDiskFull:
          // ENOSPC mid-frame: a prefix reaches the medium, then space
          // runs out.  Fail-stop contract: roll back, ack nothing, and
          // surface a distinguishable disk-full error.
          intend = d->arg % size;
          disk_full = true;
          break;
        case faults::FaultKind::kBitFlip:
          flip = true;
          flip_bit = d->arg % (size * 8);
          break;
        case faults::FaultKind::kMsgDrop:
        case faults::FaultKind::kMsgDuplicate:
        case faults::FaultKind::kMsgDelay:
          break;  // message-only kinds; meaningless at a WAL site
      }
    }
  }

  PRORP_RETURN_IF_ERROR(CopyAt(start, frame, intend));
  if (intend != size) {
    // Cut the file back to the pre-append end.  Leaving the partial
    // frame in place would make every subsequent append land behind a
    // torn record, unreachable at replay time.
    if (!CutTo(start).ok()) {
      return Status::IoError("WAL append failed and rollback failed");
    }
    if (disk_full) {
      return Status::IoError("WAL append failed: disk full (ENOSPC)");
    }
    return Status::IoError("WAL append failed: short write");
  }
  if (flip) FlipBit(start, flip_bit);
  end_ = start + size;
  return Status::OK();
}

Status WriteAheadLog::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  // Crash simulation: the process dies after appending but before the
  // data is forced to stable storage.
  PRORP_CRASH_POINT(faults::kWalPreSync);
  if (fault_plan_ != nullptr) {
    if (auto d = fault_plan_->Next(faults::FaultOp::kWalSync)) {
      (void)d;
      return Status::IoError("injected WAL sync fault");
    }
  }
  // fsync also writes back the pages dirtied through the mapped tail.
  if (::fsync(fd_) != 0) return Status::IoError("WAL fsync failed");
  return Status::OK();
}

Status WriteAheadLog::Truncate(uint64_t size) {
  std::lock_guard<std::mutex> lock(mu_);
  if (size > end_) {
    return Status::InvalidArgument("WAL truncate past the logical end");
  }
  return CutTo(size);
}

Result<uint64_t> WriteAheadLog::Replay(
    const std::string& path,
    const std::function<Status(const WalRecord&)>& apply) {
  // O_RDWR so a torn tail can be trimmed in place; fall back to read-only
  // (no trimming) if the file does not permit writing.
  bool writable = true;
  int fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
  if (fd < 0 && errno != ENOENT) {
    writable = false;
    fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  }
  if (fd < 0) {
    if (errno == ENOENT) return static_cast<uint64_t>(0);
    return Status::IoError("open WAL for replay failed");
  }
  Result<ScanResult> scan = ScanFrames(fd, &apply);
  if (!scan.ok()) {
    ::close(fd);
    return scan.status();
  }
  // Trim a torn tail so post-recovery appends land directly behind the
  // last valid record.  A tail of zeros is a mapped writer's reservation:
  // it reads as end of log, and cutting it could pull pages out from
  // under a writer that is still alive, so it stays.
  Result<bool> clean = OnlyZerosFrom(fd, scan->valid_end);
  if (!clean.ok()) {
    ::close(fd);
    return clean.status();
  }
  if (writable && !*clean &&
      ::ftruncate(fd, static_cast<off_t>(scan->valid_end)) != 0) {
    ::close(fd);
    return Status::IoError("trimming torn WAL tail failed");
  }
  ::close(fd);
  return scan->records;
}

Result<uint64_t> WriteAheadLog::SizeBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return end_;
}

}  // namespace prorp::storage
