#include "controlplane/journal.h"

#include <cstdint>

#include "faults/crash_points.h"

namespace prorp::controlplane {
namespace {

/// Record layout inside the WalRecord value:
///   [u8 kFormatTag | event][varint mask][varint field]...
/// with one varint per set mask bit, in Field order.  A field's bit is set
/// iff the field is non-zero, so an all-zero field costs nothing and the
/// encoding of a record is unique.  `attempt` and `predicted_start` are
/// zigzag-coded; `enqueued_at`, `not_before` and `deadline` are zigzag
/// deltas from the record's own `time`.  Values written before the tag
/// bit existed (a fixed 94-byte layout) carry an event byte below
/// kFormatTag and decode to Corruption.
constexpr uint8_t kFormatTag = 0x80;
// The last JournalEvent: a new event moves this bound with it.
constexpr uint8_t kMaxEvent = static_cast<uint8_t>(JournalEvent::kNodeDead);

enum Field : unsigned {
  kEpoch,
  kDb,
  kCls,
  kFlags,
  kAttempt,
  kTime,
  kPredictedStart,
  kEnqueuedAt,
  kNotBefore,
  kDeadline,
  kStats0,
  kIdleBefore = kStats0 + 4,
  kFieldCount,
};

constexpr size_t kMaxVarintBytes = 10;
constexpr size_t kMaxValueBytes =
    1 + 3 + kFieldCount * kMaxVarintBytes;  // the mask needs 3 bytes
constexpr size_t kMaxFrameBytes =
    storage::WriteAheadLog::InsertFrameBytes(kMaxValueBytes);

uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

/// `v - time` and its inverse, wrapping, so every int64 pair round-trips.
uint64_t Delta(EpochSeconds v, EpochSeconds time) {
  return ZigZag(static_cast<int64_t>(static_cast<uint64_t>(v) -
                                     static_cast<uint64_t>(time)));
}

EpochSeconds Undelta(uint64_t wire, EpochSeconds time) {
  return static_cast<EpochSeconds>(static_cast<uint64_t>(UnZigZag(wire)) +
                                   static_cast<uint64_t>(time));
}

uint8_t* PutVarint(uint8_t* p, uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *p++ = static_cast<uint8_t>(v);
  return p;
}

/// Reads the minimal varint at `*p`, refusing one that runs past `end`,
/// one longer than 64 bits need, and one with a redundant zero last byte.
Status GetVarint(const uint8_t** p, const uint8_t* end, uint64_t* v) {
  uint64_t out = 0;
  for (size_t i = 0; i < kMaxVarintBytes; ++i) {
    if (*p == end) {
      return Status::Corruption("journal record varint runs past the value");
    }
    const uint8_t b = *(*p)++;
    out |= static_cast<uint64_t>(b & 0x7f) << (7 * i);
    if ((b & 0x80) == 0) {
      if ((i > 0 && b == 0) || (i == kMaxVarintBytes - 1 && b > 1)) break;
      *v = out;
      return Status::OK();
    }
  }
  return Status::Corruption("over-long varint in journal record");
}

/// The mask of the record's non-zero fields.
uint32_t PresenceMask(const JournalRecord& r) {
  const bool nonzero[kFieldCount] = {
      r.epoch != 0,           r.db != 0,          r.cls != 0,
      r.flags != 0,           r.attempt != 0,     r.time != 0,
      r.predicted_start != 0, r.enqueued_at != 0, r.not_before != 0,
      r.deadline != 0,        r.stats[0] != 0,    r.stats[1] != 0,
      r.stats[2] != 0,        r.stats[3] != 0,    r.idle_before != 0,
  };
  uint32_t mask = 0;
  for (unsigned f = 0; f < kFieldCount; ++f) {
    mask |= static_cast<uint32_t>(nonzero[f]) << f;
  }
  return mask;
}

/// Encodes one record as the WAL frame of a kInsert record keyed by
/// `seq` into `frame` (kMaxFrameBytes long): the value in place, then the
/// frame header and CRC.  Returns the frame's length.
size_t EncodeFrame(uint64_t seq, const JournalRecord& r, uint8_t* frame) {
  const uint64_t wire[kFieldCount] = {
      r.epoch,
      r.db,
      r.cls,
      r.flags,
      ZigZag(r.attempt),
      static_cast<uint64_t>(r.time),
      ZigZag(r.predicted_start),
      Delta(r.enqueued_at, r.time),
      Delta(r.not_before, r.time),
      Delta(r.deadline, r.time),
      r.stats[0],
      r.stats[1],
      r.stats[2],
      r.stats[3],
      r.idle_before,
  };
  const uint32_t mask = PresenceMask(r);
  uint8_t* const value = frame + storage::WriteAheadLog::kInsertValueOffset;
  uint8_t* p = value;
  *p++ = kFormatTag | static_cast<uint8_t>(r.event);
  p = PutVarint(p, mask);
  for (unsigned f = 0; f < kFieldCount; ++f) {
    if ((mask >> f) & 1) p = PutVarint(p, wire[f]);
  }
  const size_t value_bytes = static_cast<size_t>(p - value);
  storage::WriteAheadLog::SealInsertFrame(static_cast<int64_t>(seq),
                                          value_bytes, frame);
  return storage::WriteAheadLog::InsertFrameBytes(value_bytes);
}

Result<JournalRecord> Decode(const storage::WalRecord& wr) {
  if (wr.type != storage::WalRecord::Type::kInsert || wr.value.empty()) {
    return Status::Corruption("malformed control-plane journal record");
  }
  const uint8_t* p = wr.value.data();
  const uint8_t* const end = p + wr.value.size();
  const uint8_t tagged = *p++;
  if ((tagged & kFormatTag) == 0) {
    return Status::Corruption(
        "control-plane journal record predates the varint format");
  }
  const uint8_t event = static_cast<uint8_t>(tagged & ~kFormatTag);
  if (event == 0 || event > kMaxEvent) {
    return Status::Corruption("unknown control-plane journal event");
  }
  uint64_t mask = 0;
  PRORP_RETURN_IF_ERROR(GetVarint(&p, end, &mask));
  if (mask >> kFieldCount != 0) {
    return Status::Corruption("unknown field bits in journal record mask");
  }
  uint64_t wire[kFieldCount] = {};
  for (unsigned f = 0; f < kFieldCount; ++f) {
    if ((mask >> f) & 1) PRORP_RETURN_IF_ERROR(GetVarint(&p, end, &wire[f]));
  }
  if (p != end) {
    return Status::Corruption("trailing bytes behind journal record");
  }
  const int64_t attempt = UnZigZag(wire[kAttempt]);
  if (wire[kDb] > UINT32_MAX || wire[kCls] > UINT8_MAX ||
      wire[kFlags] > UINT32_MAX || attempt < INT32_MIN ||
      attempt > INT32_MAX) {
    return Status::Corruption("journal record field out of range");
  }
  JournalRecord r;
  r.event = static_cast<JournalEvent>(event);
  r.epoch = wire[kEpoch];
  r.db = static_cast<DbId>(wire[kDb]);
  r.cls = static_cast<uint8_t>(wire[kCls]);
  r.flags = static_cast<uint32_t>(wire[kFlags]);
  r.attempt = static_cast<int32_t>(attempt);
  r.time = static_cast<EpochSeconds>(wire[kTime]);
  r.predicted_start = UnZigZag(wire[kPredictedStart]);
  // An absent delta field is zero, not `time`.
  auto undelta = [&](Field f) {
    return (mask >> f) & 1 ? Undelta(wire[f], r.time) : EpochSeconds{0};
  };
  r.enqueued_at = undelta(kEnqueuedAt);
  r.not_before = undelta(kNotBefore);
  r.deadline = undelta(kDeadline);
  for (size_t i = 0; i < r.stats.size(); ++i) r.stats[i] = wire[kStats0 + i];
  r.idle_before = wire[kIdleBefore];
  // A set bit must name a non-zero field, so each record has one encoding.
  if (PresenceMask(r) != mask) {
    return Status::Corruption("journal record mask names a zero field");
  }
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
  uint8_t frame[kMaxFrameBytes];
  const size_t frame_bytes = EncodeFrame(next_seq_, record, frame);
  Status s = wal_->AppendFrame(frame, frame_bytes);
  if (!s.ok()) {
    dead_ = s;
    return dead_;
  }
  // Crash simulation: the frame reached the journal file but the process
  // dies before the fsync (and before the transition is acknowledged).
  // The armed payload picks the surviving prefix: 0 keeps the whole frame
  // (durable but unacknowledged — recovery replays it), n > 0 keeps
  // n % frame_bytes bytes of the frame just appended (a torn tail
  // recovery must trim).  The cut goes through the WAL, which owns the
  // mapped tail.
  if (Status crash = faults::HitCrashPoint(faults::kCpJournalPreSync);
      !crash.ok()) {
    uint64_t payload = faults::CrashPointRegistry::Global().payload();
    if (payload > 0) {
      if (auto size = wal_->SizeBytes(); size.ok()) {
        (void)wal_->Truncate(*size - frame_bytes + payload % frame_bytes);
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
