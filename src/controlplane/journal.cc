#include "controlplane/journal.h"

#include <cstring>

#include "faults/crash_points.h"

namespace prorp::controlplane {
namespace {

/// Fixed record layout inside the WalRecord value:
///   [u8 event][u64 epoch][u32 db][u8 cls][u32 flags][i32 attempt]
///   [i64 time][i64 enqueued_at][i64 not_before][i64 deadline]
///   [i64 predicted_start][u64 stats[4]]
constexpr size_t kRecordBytes = 1 + 8 + 4 + 1 + 4 + 4 + 8 * 5 + 8 * 4;
constexpr size_t kFrameBytes =
    storage::WriteAheadLog::InsertFrameBytes(kRecordBytes);

template <typename T>
uint8_t* Put(uint8_t* p, T v) {
  std::memcpy(p, &v, sizeof(T));
  return p + sizeof(T);
}

template <typename T>
T Get(const uint8_t*& p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  p += sizeof(T);
  return v;
}

/// Encodes one record as the WAL frame of a kInsert record keyed by
/// `seq`: the value in place, then the frame header and CRC.
void EncodeFrame(uint64_t seq, const JournalRecord& r, uint8_t* frame) {
  uint8_t* p = frame + storage::WriteAheadLog::kInsertValueOffset;
  p = Put<uint8_t>(p, static_cast<uint8_t>(r.event));
  p = Put<uint64_t>(p, r.epoch);
  p = Put<uint32_t>(p, r.db);
  p = Put<uint8_t>(p, r.cls);
  p = Put<uint32_t>(p, r.flags);
  p = Put<int32_t>(p, r.attempt);
  p = Put<int64_t>(p, r.time);
  p = Put<int64_t>(p, r.enqueued_at);
  p = Put<int64_t>(p, r.not_before);
  p = Put<int64_t>(p, r.deadline);
  p = Put<int64_t>(p, r.predicted_start);
  for (uint64_t s : r.stats) p = Put<uint64_t>(p, s);
  storage::WriteAheadLog::SealInsertFrame(static_cast<int64_t>(seq),
                                          kRecordBytes, frame);
}

Result<JournalRecord> Decode(const storage::WalRecord& wr) {
  if (wr.type != storage::WalRecord::Type::kInsert ||
      wr.value.size() != kRecordBytes) {
    return Status::Corruption("malformed control-plane journal record");
  }
  const uint8_t* p = wr.value.data();
  JournalRecord r;
  r.event = static_cast<JournalEvent>(Get<uint8_t>(p));
  r.epoch = Get<uint64_t>(p);
  r.db = Get<uint32_t>(p);
  r.cls = Get<uint8_t>(p);
  r.flags = Get<uint32_t>(p);
  r.attempt = Get<int32_t>(p);
  r.time = Get<int64_t>(p);
  r.enqueued_at = Get<int64_t>(p);
  r.not_before = Get<int64_t>(p);
  r.deadline = Get<int64_t>(p);
  r.predicted_start = Get<int64_t>(p);
  for (uint64_t& s : r.stats) s = Get<uint64_t>(p);
  return r;
}

}  // namespace

Result<std::unique_ptr<ControlPlaneJournal>> ControlPlaneJournal::Open(
    const std::string& path, SyncMode mode) {
  PRORP_ASSIGN_OR_RETURN(auto wal, storage::WriteAheadLog::Open(path));
  return std::unique_ptr<ControlPlaneJournal>(
      new ControlPlaneJournal(std::move(wal), path, mode));
}

Status ControlPlaneJournal::Append(const JournalRecord& record) {
  if (!dead_.ok()) return dead_;
  uint8_t frame[kFrameBytes];
  EncodeFrame(next_seq_, record, frame);
  Status s = wal_->AppendFrame(frame, kFrameBytes);
  if (!s.ok()) {
    dead_ = s;
    return dead_;
  }
  // Crash simulation: the frame reached the journal file but the process
  // dies before the fsync (and before the transition is acknowledged).
  // The armed payload picks the surviving prefix: 0 keeps the whole frame
  // (durable but unacknowledged — recovery replays it), n > 0 keeps
  // n % frame_size bytes (a torn tail recovery must trim).  The cut goes
  // through the WAL, which owns the mapped tail.
  if (Status crash = faults::HitCrashPoint(faults::kCpJournalPreSync);
      !crash.ok()) {
    uint64_t payload = faults::CrashPointRegistry::Global().payload();
    if (payload > 0) {
      if (auto size = wal_->SizeBytes(); size.ok()) {
        (void)wal_->Truncate(*size - kFrameBytes + payload % kFrameBytes);
      }
    }
    dead_ = crash;
    return dead_;
  }
  if (mode_ == SyncMode::kDurable) {
    s = wal_->Sync();
    if (!s.ok()) {
      dead_ = s;
      return dead_;
    }
  }
  ++next_seq_;
  ++appended_;
  return Status::OK();
}

Status ControlPlaneJournal::Sync() {
  if (!dead_.ok()) return dead_;
  Status s = wal_->Sync();
  if (!s.ok()) dead_ = s;
  return s;
}

Status ControlPlaneJournal::TruncateAfterCheckpoint() {
  if (!dead_.ok()) return dead_;
  Status s = wal_->Truncate();
  if (!s.ok()) dead_ = s;
  return s;
}

Result<uint64_t> ControlPlaneJournal::Replay(
    const std::string& path,
    const std::function<Status(uint64_t seq, const JournalRecord&)>& apply) {
  return storage::WriteAheadLog::Replay(
      path, [&](const storage::WalRecord& wr) -> Status {
        PRORP_ASSIGN_OR_RETURN(JournalRecord rec, Decode(wr));
        return apply(static_cast<uint64_t>(wr.key), rec);
      });
}

}  // namespace prorp::controlplane
