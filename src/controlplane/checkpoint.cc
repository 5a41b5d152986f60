#include "controlplane/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <type_traits>
#include <vector>

#include "faults/crash_points.h"
#include "storage/crc32.h"
#include "storage/io_util.h"

namespace prorp::controlplane {
namespace {

constexpr uint32_t kCheckpointMagic = 0x5052434a;  // "PRCJ"
constexpr uint32_t kCheckpointVersion = 4;

/// Checkpoint body writer.  The body is serialized twice by the same
/// code: first with no buffer, which only counts the bytes, then into a
/// buffer allocated once at exactly that size.
class Writer {
 public:
  explicit Writer(uint8_t* out) : out_(out) {}

  void PutBytes(const void* p, size_t n) {
    if (out_ != nullptr && n > 0) std::memcpy(out_ + size_, p, n);
    size_ += n;
  }
  size_t size() const { return size_; }

 private:
  uint8_t* out_;
  size_t size_ = 0;
};

/// Bounds-checked reader over the checkpoint body (the CRC already
/// vouches for integrity; the checks turn version drift or a forged
/// body into a clean Corruption instead of a wild read or index).
struct Reader {
  const uint8_t* p;
  const uint8_t* end;
  const char* error = nullptr;  // the first failure; null while intact

  bool GetBytes(void* v, size_t n) {
    if (error == nullptr && static_cast<size_t>(end - p) < n) {
      error = "control-plane checkpoint truncated";
    }
    if (error != nullptr) return false;
    if (n > 0) std::memcpy(v, p, n);
    p += n;
    return true;
  }
};

template <typename Wire, typename T>
using WireOf = std::conditional_t<std::is_void_v<Wire>, T, Wire>;

/// One field of the body, stored as `Wire` (by default the field's own
/// type).  The writer and the reader walk the same field lists below, so
/// each field is named once.
template <typename Wire = void, typename T>
void Field(Writer& w, const T& v) {
  const WireOf<Wire, T> x = static_cast<WireOf<Wire, T>>(v);
  w.PutBytes(&x, sizeof(x));
}

template <typename Wire = void, typename T>
void Field(Reader& r, T& v) {
  WireOf<Wire, T> x{};
  if (r.GetBytes(&x, sizeof(x))) v = static_cast<T>(x);
}

/// An enum stored as one byte.  The reader refuses a byte above `max`:
/// a class or breaker code indexes per-class arrays after the load.
template <typename E>
void Byte(Writer& w, const E& v, E /*max*/) {
  Field<uint8_t>(w, v);
}

template <typename E>
void Byte(Reader& r, E& v, E max) {
  uint8_t b = 0;
  if (!r.GetBytes(&b, 1)) return;
  if (b > static_cast<uint8_t>(max)) {
    r.error = "control-plane checkpoint holds an out-of-range enum byte";
    return;
  }
  v = static_cast<E>(b);
}

/// True when the iterations per resumed count agree with the counters
/// restored beside them: no more iterations than were observed, and as
/// many resumes as the total.  Checked without overflow, so a forged
/// count cannot slip through by wrapping.
bool IterationCountsAgree(const std::vector<uint64_t>& counts,
                          uint64_t iterations, uint64_t resumed) {
  for (size_t v = 0; v < counts.size(); ++v) {
    const uint64_t c = counts[v];
    if (c > iterations || (v > 0 && c > resumed / v)) return false;
    iterations -= c;
    resumed -= c * v;
  }
  return resumed == 0;
}

/// A histogram's buckets, count, max and sum; the reader restores it
/// whole or not at all.
template <typename IO, typename H>
void HistogramFields(IO& io, H& h) {
  auto buckets = h.buckets();
  uint64_t count = h.count();
  int64_t max = h.max();
  uint64_t sum = h.sum();
  for (uint64_t& b : buckets) Field(io, b);
  Field(io, count);
  Field(io, max);
  Field(io, sum);
  if constexpr (!std::is_const_v<H>) {
    if (io.error == nullptr) h.Restore(buckets, count, max, sum);
  }
}

/// One metadata-store row.
template <typename IO, typename Row>
void RowFields(IO& io, Row& row) {
  Field(io, row.db);
  Field(io, row.state_code);
  Field(io, row.predicted_start);
}

}  // namespace

/// Serializes and restores the private state of ManagementService for
/// checkpoints.  Lives here (not in the service) so the service header
/// stays free of wire-format concerns; declared a friend there.
struct ServiceStateCodec {
  using Service = ManagementService;
  using WorkItem = ManagementService::WorkItem;
  using InFlightItem = ManagementService::InFlightItem;

  /// The one work-item field list, shared by the queue and unacked
  /// sections.
  template <typename IO, typename Item>
  static void ItemFields(IO& io, Item& item) {
    Field(io, item.db);
    Byte(io, item.cls, ResumeClass::kMaintenance);
    Field<int32_t>(io, item.attempts);
    Field(io, item.not_before);
    Field(io, item.enqueued_at);
    Field(io, item.deadline);
    Field<uint8_t>(io, item.hedged);
    Field<uint8_t>(io, item.wait_recorded);
  }

  template <typename IO, typename Db, typename Item>
  static void InFlightFields(IO& io, Db& db, Item& f) {
    Field(io, db);
    Byte(io, f.cls, ResumeClass::kMaintenance);
    Field<int32_t>(io, f.attempts);
    Field(io, f.started);
    Field(io, f.deadline);
    Field<uint8_t>(io, f.hedged);
  }

  // The container sections are the only direction-specific part: the
  // writer sorts the hash maps so identical states checkpoint identically,
  // and the reader rebuilds the queue index.

  static void Queues(Writer& w, const Service& s) {
    for (const auto& q : s.queues_) {
      Field<uint64_t>(w, q.size());
      for (const WorkItem& item : q) ItemFields(w, item);
    }
  }
  static void Queues(Reader& r, Service& s) {
    for (size_t c = 0; c < kNumResumeClasses; ++c) {
      uint64_t n = 0;
      Field(r, n);
      for (uint64_t i = 0; i < n && r.error == nullptr; ++i) {
        WorkItem item;
        ItemFields(r, item);
        if (r.error == nullptr && Service::Idx(item.cls) != c) {
          r.error = "control-plane checkpoint queues an item in another class";
        }
        if (r.error != nullptr) break;
        s.queues_[c].push_back(item);
        s.queued_dbs_.emplace(item.db, item.cls);
      }
    }
  }

  static void InFlight(Writer& w, const Service& s) {
    Field<uint64_t>(w, s.in_flight_.size());
    for (DbId db : SortedKeys(s.in_flight_)) {
      InFlightFields(w, db, s.in_flight_.at(db));
    }
  }
  static void InFlight(Reader& r, Service& s) {
    uint64_t n = 0;
    Field(r, n);
    for (uint64_t i = 0; i < n && r.error == nullptr; ++i) {
      DbId db = 0;
      InFlightItem f;
      InFlightFields(r, db, f);
      if (r.error == nullptr) s.in_flight_[db] = f;
    }
  }

  /// Iterations per resumed count, indexed by the count.
  static void Counts(Writer& w, const Service& s) {
    const std::vector<uint64_t>& counts = s.resumed_per_iteration_;
    Field<uint64_t>(w, counts.size());
    w.PutBytes(counts.data(), counts.size() * sizeof(uint64_t));
  }
  /// A length the bytes left cannot hold fails the read before anything
  /// is allocated.
  static void Counts(Reader& r, Service& s) {
    uint64_t n = 0;
    Field(r, n);
    if (r.error == nullptr &&
        n > static_cast<uint64_t>(r.end - r.p) / sizeof(uint64_t)) {
      r.error = "control-plane checkpoint truncated";
    }
    if (r.error != nullptr) return;
    s.resumed_per_iteration_.resize(n);
    r.GetBytes(s.resumed_per_iteration_.data(), n * sizeof(uint64_t));
  }

  /// Unacked dispatches, persisted as their queued-item state.  On
  /// restore they re-enter the queue pending reconciliation — their
  /// request ids are meaningless to the next incarnation, whose recovery
  /// resolves them against the node exactly like crash-left dispatches.
  static void Unacked(Writer& w, const Service& s) {
    Field<uint64_t>(w, s.unacked_.size());
    for (DbId db : SortedKeys(s.unacked_)) {
      ItemFields(w, s.unacked_.at(db).item);
    }
  }
  static void Unacked(Reader& r, Service& s) {
    uint64_t n = 0;
    Field(r, n);
    for (uint64_t i = 0; i < n && r.error == nullptr; ++i) {
      WorkItem item;
      ItemFields(r, item);
      if (r.error != nullptr) break;
      s.queues_[Service::Idx(item.cls)].push_back(item);
      s.queued_dbs_.emplace(item.db, item.cls);
      s.recovery_pending_[item.db] = item.cls;
    }
  }

  template <typename Map>
  static std::vector<DbId> SortedKeys(const Map& m) {
    std::vector<DbId> ids;
    ids.reserve(m.size());
    for (const auto& entry : m) ids.push_back(entry.first);
    std::sort(ids.begin(), ids.end());
    return ids;
  }

  /// The service body, in wire order.  The breaker's sliding outcome
  /// window and half-open probe progress are intentionally absent:
  /// recovery re-arms them conservatively (DESIGN.md section 10).
  template <typename IO, typename S>
  static void Fields(IO& io, S& s) {
    Queues(io, s);
    InFlight(io, s);
    Counts(io, s);
    auto& d = s.diagnostics_;
    Field(io, d.observed_iterations);
    Field<uint64_t>(io, d.max_queue_depth);
    for (auto* v :
         {&d.stuck_workflows, &d.mitigated, &d.skipped_state_changed,
          &d.failed_then_skipped, &d.failed_then_shed, &d.incidents,
          &d.backoff_retries_scheduled, &d.backoff_delay_seconds_total,
          &d.shed_resumes, &d.breaker_opens, &d.breaker_state_changes,
          &d.storms_detected, &d.slow_start_ticks, &d.quota_deferrals,
          &d.catch_up_enqueued, &d.deleted_while_queued}) {
      Field(io, *v);
    }
    Field<int32_t>(io, d.max_brownout_level);
    for (auto& c : d.per_class) {
      for (auto* v : {&c.enqueued, &c.resumed, &c.shed_admission,
                      &c.shed_evicted, &c.stuck, &c.mitigated, &c.incidents,
                      &c.skipped_state_changed, &c.failed_then_skipped,
                      &c.failed_then_shed, &c.deadline_breaches, &c.hedged,
                      &c.hedge_wins}) {
        Field(io, *v);
      }
    }
    HistogramFields(io, d.queue_wait);
    HistogramFields(io, d.in_flight_duration);
    Field(io, s.total_resumed_);
    Byte(io, s.breaker_, BreakerState::kHalfOpen);
    Field(io, s.breaker_opened_at_);
    Field<uint8_t>(io, s.storm_active_);
    Field(io, s.storm_seq_);
    Field<int32_t>(io, s.ramp_step_);
    Field(io, s.quota_this_iteration_);
    Field(io, s.storm_ended_at_);
    Field(io, s.reactive_arrivals_);
    Unacked(io, s);
    Field(io, d.node_failovers);
    Field(io, d.failover_requeues);
  }

  static Status Deserialize(Service* s, Reader& r) {
    for (auto& q : s->queues_) q.clear();
    s->queued_dbs_.clear();
    s->in_flight_.clear();
    s->unacked_.clear();
    Fields(r, *s);
    s->outcomes_.clear();
    s->window_failures_ = 0;
    s->half_open_probes_issued_ = 0;
    s->half_open_successes_ = 0;
    if (r.error != nullptr) return Status::Corruption(r.error);
    if (!IterationCountsAgree(s->resumed_per_iteration_,
                              s->diagnostics_.observed_iterations,
                              s->total_resumed_)) {
      return Status::Corruption(
          "checkpoint iteration counts disagree with its counters");
    }
    return Status::OK();
  }
};

Status SaveCheckpoint(const std::string& path, const MetadataStore& meta,
                      const ManagementService& svc, uint64_t epoch,
                      uint64_t last_seq, bool sync) {
  const std::vector<MetadataStore::ExportedEntry> rows = meta.Export();
  auto serialize = [&](Writer& out) {
    Field(out, epoch);
    Field(out, last_seq);
    Field<uint64_t>(out, rows.size());
    for (const MetadataStore::ExportedEntry& row : rows) RowFields(out, row);
    ServiceStateCodec::Fields(out, svc);
  };
  Writer count(nullptr);
  serialize(count);
  std::vector<uint8_t> body(count.size());
  Writer fill(body.data());
  serialize(fill);
  uint32_t crc = storage::Crc32(body.data(), body.size());

  std::string tmp = path + ".tmp";
  FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return Status::IoError("cannot create checkpoint temp");
  bool ok = std::fwrite(&kCheckpointMagic, 4, 1, f) == 1 &&
            std::fwrite(&kCheckpointVersion, 4, 1, f) == 1;
  size_t half = body.size() / 2;
  ok = ok && (half == 0 || std::fwrite(body.data(), half, 1, f) == 1);
  // Crash simulation: the process dies halfway through the temp file.
  // The previous checkpoint (or none) plus the un-truncated journal must
  // still recover the full state.  Both the storage-generic and the
  // control-plane-specific point fire here, so either arm reaches it.
  for (std::string_view point :
       {faults::kSnapshotMidCopy, faults::kCpCheckpointMidWrite}) {
    if (Status crash = faults::HitCrashPoint(point); !crash.ok()) {
      std::fclose(f);
      return crash;
    }
  }
  ok = ok &&
       (body.size() == half ||
        std::fwrite(body.data() + half, body.size() - half, 1, f) == 1) &&
       std::fwrite(&crc, 4, 1, f) == 1;
  ok = ok && (!sync || storage::io::SyncStream(f).ok());
  ok = (std::fclose(f) == 0) && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    return Status::IoError("checkpoint write failed");
  }
  return storage::io::PublishFile(tmp, path, sync, "checkpoint");
}

Result<LoadedCheckpoint> LoadCheckpoint(const std::string& path,
                                        MetadataStore* meta,
                                        ManagementService* svc) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::NotFound("no control-plane checkpoint");
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  if (size < 12) {
    std::fclose(f);
    return Status::Corruption("control-plane checkpoint too small");
  }
  std::vector<uint8_t> buf(static_cast<size_t>(size));
  bool ok = std::fread(buf.data(), buf.size(), 1, f) == 1;
  std::fclose(f);
  if (!ok) return Status::IoError("checkpoint read failed");

  uint32_t magic, version, crc;
  std::memcpy(&magic, buf.data(), 4);
  std::memcpy(&version, buf.data() + 4, 4);
  std::memcpy(&crc, buf.data() + buf.size() - 4, 4);
  if (magic != kCheckpointMagic) {
    return Status::Corruption("bad checkpoint magic");
  }
  if (version != kCheckpointVersion) {
    return Status::Corruption("unknown checkpoint version");
  }
  const uint8_t* body = buf.data() + 8;
  size_t body_len = buf.size() - 12;
  if (storage::Crc32(body, body_len) != crc) {
    return Status::Corruption("checkpoint CRC mismatch");
  }

  Reader r{body, body + body_len};
  LoadedCheckpoint loaded;
  Field(r, loaded.epoch);
  Field(r, loaded.last_seq);
  uint64_t n_rows = 0;
  Field(r, n_rows);
  for (uint64_t i = 0; i < n_rows && r.error == nullptr; ++i) {
    MetadataStore::ExportedEntry row;
    RowFields(r, row);
    if (r.error != nullptr) break;
    PRORP_RETURN_IF_ERROR(
        meta->RestoreUpsert(row.db, row.state_code, row.predicted_start));
  }
  PRORP_RETURN_IF_ERROR(ServiceStateCodec::Deserialize(svc, r));
  return loaded;
}

}  // namespace prorp::controlplane
