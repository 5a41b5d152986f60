#include "controlplane/checkpoint.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <vector>

#include "faults/crash_points.h"
#include "storage/crc32.h"
#include "storage/io_util.h"

namespace prorp::controlplane {
namespace {

constexpr uint32_t kCheckpointMagic = 0x5052434a;  // "PRCJ"
// v2 appends the unacked-dispatch section (transport layer).
// v3 appends the failover counters (node health tracker).
// v4 keeps the iterations per resumed count instead of one sample per
// iteration, so a checkpoint no longer grows with the run's length.
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

template <typename T>
void Put(Writer& out, T v) {
  out.PutBytes(&v, sizeof(T));
}

/// Bounds-checked reader over the checkpoint body (the CRC already
/// vouches for integrity; the bounds checks turn version drift into a
/// clean Corruption instead of a wild read).
struct Reader {
  const uint8_t* p;
  const uint8_t* end;
  bool failed = false;

  template <typename T>
  T Get() {
    T v{};
    if (failed || end - p < static_cast<ptrdiff_t>(sizeof(T))) {
      failed = true;
      return v;
    }
    std::memcpy(&v, p, sizeof(T));
    p += sizeof(T);
    return v;
  }

  /// Reads a length and then that many u64s.  A length the bytes left
  /// cannot hold fails the read before anything is allocated.
  void GetU64s(std::vector<uint64_t>* out) {
    const uint64_t n = Get<uint64_t>();
    if (failed || n > static_cast<uint64_t>(end - p) / sizeof(uint64_t)) {
      failed = true;
      return;
    }
    out->resize(n);
    if (n > 0) std::memcpy(out->data(), p, n * sizeof(uint64_t));
    p += n * sizeof(uint64_t);
  }
};

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

void PutHistogram(Writer& out, const telemetry::Histogram& h) {
  for (uint64_t b : h.buckets()) Put<uint64_t>(out, b);
  Put<uint64_t>(out, h.count());
  Put<int64_t>(out, h.max());
  Put<uint64_t>(out, h.sum());
}

void GetHistogram(Reader& r, telemetry::Histogram* h) {
  std::array<uint64_t, telemetry::Histogram::kNumBuckets> buckets{};
  for (uint64_t& b : buckets) b = r.Get<uint64_t>();
  uint64_t count = r.Get<uint64_t>();
  int64_t max = r.Get<int64_t>();
  uint64_t sum = r.Get<uint64_t>();
  if (!r.failed) h->Restore(buckets, count, max, sum);
}

}  // namespace

/// Serializes and restores the private state of ManagementService for
/// checkpoints.  Lives here (not in the service) so the service header
/// stays free of wire-format concerns; declared a friend there.
struct ServiceStateCodec {
  using WorkItem = ManagementService::WorkItem;

  /// The one work-item codec, shared by the queue and unacked sections.
  static void PutItem(Writer& out, const WorkItem& item) {
    Put<uint32_t>(out, item.db);
    Put<uint8_t>(out, static_cast<uint8_t>(item.cls));
    Put<int32_t>(out, item.attempts);
    Put<int64_t>(out, item.not_before);
    Put<int64_t>(out, item.enqueued_at);
    Put<int64_t>(out, item.deadline);
    Put<uint8_t>(out, item.hedged ? 1 : 0);
    Put<uint8_t>(out, item.wait_recorded ? 1 : 0);
  }

  static WorkItem GetItem(Reader& r) {
    WorkItem item;
    item.db = r.Get<uint32_t>();
    item.cls = static_cast<ResumeClass>(r.Get<uint8_t>());
    item.attempts = r.Get<int32_t>();
    item.not_before = r.Get<int64_t>();
    item.enqueued_at = r.Get<int64_t>();
    item.deadline = r.Get<int64_t>();
    item.hedged = r.Get<uint8_t>() != 0;
    item.wait_recorded = r.Get<uint8_t>() != 0;
    return item;
  }

  static void Serialize(const ManagementService& s, Writer& out) {
    for (const auto& q : s.queues_) {
      Put<uint64_t>(out, q.size());
      for (const WorkItem& item : q) PutItem(out, item);
    }
    Put<uint64_t>(out, s.in_flight_.size());
    // Deterministic order, so identical states checkpoint identically.
    std::vector<DbId> ids;
    ids.reserve(s.in_flight_.size());
    for (const auto& [db, f] : s.in_flight_) ids.push_back(db);
    std::sort(ids.begin(), ids.end());
    for (DbId db : ids) {
      const ManagementService::InFlightItem& f = s.in_flight_.at(db);
      Put<uint32_t>(out, db);
      Put<uint8_t>(out, static_cast<uint8_t>(f.cls));
      Put<int32_t>(out, f.attempts);
      Put<int64_t>(out, f.started);
      Put<int64_t>(out, f.deadline);
      Put<uint8_t>(out, f.hedged ? 1 : 0);
    }
    // v4: iterations per resumed count, indexed by the count.
    const std::vector<uint64_t>& counts = s.resumed_per_iteration_;
    Put<uint64_t>(out, counts.size());
    out.PutBytes(counts.data(), counts.size() * sizeof(uint64_t));

    const DiagnosticsReport& d = s.diagnostics_;
    Put<uint64_t>(out, d.observed_iterations);
    Put<uint64_t>(out, static_cast<uint64_t>(d.max_queue_depth));
    Put<uint64_t>(out, d.stuck_workflows);
    Put<uint64_t>(out, d.mitigated);
    Put<uint64_t>(out, d.skipped_state_changed);
    Put<uint64_t>(out, d.failed_then_skipped);
    Put<uint64_t>(out, d.failed_then_shed);
    Put<uint64_t>(out, d.incidents);
    Put<uint64_t>(out, d.backoff_retries_scheduled);
    Put<uint64_t>(out, d.backoff_delay_seconds_total);
    Put<uint64_t>(out, d.shed_resumes);
    Put<uint64_t>(out, d.breaker_opens);
    Put<uint64_t>(out, d.breaker_state_changes);
    Put<uint64_t>(out, d.storms_detected);
    Put<uint64_t>(out, d.slow_start_ticks);
    Put<uint64_t>(out, d.quota_deferrals);
    Put<uint64_t>(out, d.catch_up_enqueued);
    Put<uint64_t>(out, d.deleted_while_queued);
    Put<int32_t>(out, d.max_brownout_level);
    for (const ClassDiagnostics& c : d.per_class) {
      Put<uint64_t>(out, c.enqueued);
      Put<uint64_t>(out, c.resumed);
      Put<uint64_t>(out, c.shed_admission);
      Put<uint64_t>(out, c.shed_evicted);
      Put<uint64_t>(out, c.stuck);
      Put<uint64_t>(out, c.mitigated);
      Put<uint64_t>(out, c.incidents);
      Put<uint64_t>(out, c.skipped_state_changed);
      Put<uint64_t>(out, c.failed_then_skipped);
      Put<uint64_t>(out, c.failed_then_shed);
      Put<uint64_t>(out, c.deadline_breaches);
      Put<uint64_t>(out, c.hedged);
      Put<uint64_t>(out, c.hedge_wins);
    }
    PutHistogram(out, d.queue_wait);
    PutHistogram(out, d.in_flight_duration);
    Put<uint64_t>(out, s.total_resumed_);

    // Breaker/storm posture.  The sliding outcome window and half-open
    // probe progress are intentionally excluded: recovery re-arms them
    // conservatively (DESIGN.md section 10).
    Put<uint8_t>(out, static_cast<uint8_t>(s.breaker_));
    Put<int64_t>(out, s.breaker_opened_at_);
    Put<uint8_t>(out, s.storm_active_ ? 1 : 0);
    Put<uint64_t>(out, s.storm_seq_);
    Put<int32_t>(out, s.ramp_step_);
    Put<uint64_t>(out, s.quota_this_iteration_);
    Put<int64_t>(out, s.storm_ended_at_);
    Put<uint64_t>(out, s.reactive_arrivals_);

    // v2: unacked dispatches, persisted as their queued-item state.  On
    // restore they re-enter the queue pending reconciliation — their
    // request ids are meaningless to the next incarnation, whose recovery
    // resolves them against the node exactly like crash-left dispatches.
    Put<uint64_t>(out, s.unacked_.size());
    std::vector<DbId> udbs;
    udbs.reserve(s.unacked_.size());
    for (const auto& [db, u] : s.unacked_) udbs.push_back(db);
    std::sort(udbs.begin(), udbs.end());
    for (DbId db : udbs) PutItem(out, s.unacked_.at(db).item);

    // v3: failover counters.
    Put<uint64_t>(out, d.node_failovers);
    Put<uint64_t>(out, d.failover_requeues);
  }

  static Status Deserialize(ManagementService* s, Reader& r) {
    for (auto& q : s->queues_) q.clear();
    s->queued_dbs_.clear();
    s->in_flight_.clear();
    s->unacked_.clear();
    for (auto& q : s->queues_) {
      uint64_t n = r.Get<uint64_t>();
      for (uint64_t i = 0; i < n && !r.failed; ++i) {
        WorkItem item = GetItem(r);
        if (r.failed) break;
        q.push_back(item);
        s->queued_dbs_.emplace(item.db, item.cls);
      }
    }
    uint64_t n_in_flight = r.Get<uint64_t>();
    for (uint64_t i = 0; i < n_in_flight && !r.failed; ++i) {
      DbId db = r.Get<uint32_t>();
      ManagementService::InFlightItem f;
      f.cls = static_cast<ResumeClass>(r.Get<uint8_t>());
      f.attempts = r.Get<int32_t>();
      f.started = r.Get<int64_t>();
      f.deadline = r.Get<int64_t>();
      f.hedged = r.Get<uint8_t>() != 0;
      if (r.failed) break;
      s->in_flight_[db] = f;
    }
    r.GetU64s(&s->resumed_per_iteration_);

    DiagnosticsReport& d = s->diagnostics_;
    d.observed_iterations = r.Get<uint64_t>();
    d.max_queue_depth = static_cast<size_t>(r.Get<uint64_t>());
    d.stuck_workflows = r.Get<uint64_t>();
    d.mitigated = r.Get<uint64_t>();
    d.skipped_state_changed = r.Get<uint64_t>();
    d.failed_then_skipped = r.Get<uint64_t>();
    d.failed_then_shed = r.Get<uint64_t>();
    d.incidents = r.Get<uint64_t>();
    d.backoff_retries_scheduled = r.Get<uint64_t>();
    d.backoff_delay_seconds_total = r.Get<uint64_t>();
    d.shed_resumes = r.Get<uint64_t>();
    d.breaker_opens = r.Get<uint64_t>();
    d.breaker_state_changes = r.Get<uint64_t>();
    d.storms_detected = r.Get<uint64_t>();
    d.slow_start_ticks = r.Get<uint64_t>();
    d.quota_deferrals = r.Get<uint64_t>();
    d.catch_up_enqueued = r.Get<uint64_t>();
    d.deleted_while_queued = r.Get<uint64_t>();
    d.max_brownout_level = r.Get<int32_t>();
    for (ClassDiagnostics& c : d.per_class) {
      c.enqueued = r.Get<uint64_t>();
      c.resumed = r.Get<uint64_t>();
      c.shed_admission = r.Get<uint64_t>();
      c.shed_evicted = r.Get<uint64_t>();
      c.stuck = r.Get<uint64_t>();
      c.mitigated = r.Get<uint64_t>();
      c.incidents = r.Get<uint64_t>();
      c.skipped_state_changed = r.Get<uint64_t>();
      c.failed_then_skipped = r.Get<uint64_t>();
      c.failed_then_shed = r.Get<uint64_t>();
      c.deadline_breaches = r.Get<uint64_t>();
      c.hedged = r.Get<uint64_t>();
      c.hedge_wins = r.Get<uint64_t>();
    }
    GetHistogram(r, &d.queue_wait);
    GetHistogram(r, &d.in_flight_duration);
    s->total_resumed_ = r.Get<uint64_t>();

    s->breaker_ = static_cast<BreakerState>(r.Get<uint8_t>());
    s->breaker_opened_at_ = r.Get<int64_t>();
    s->storm_active_ = r.Get<uint8_t>() != 0;
    s->storm_seq_ = r.Get<uint64_t>();
    s->ramp_step_ = r.Get<int32_t>();
    s->quota_this_iteration_ = r.Get<uint64_t>();
    s->storm_ended_at_ = r.Get<int64_t>();
    s->reactive_arrivals_ = r.Get<uint64_t>();
    uint64_t n_unacked = r.Get<uint64_t>();
    for (uint64_t i = 0; i < n_unacked && !r.failed; ++i) {
      WorkItem item = GetItem(r);
      if (r.failed) break;
      // Back into the queue, flagged for reconciliation: the restored
      // incarnation treats a checkpointed unacked dispatch exactly like a
      // crash-left one.
      s->queues_[ManagementService::Idx(item.cls)].push_back(item);
      s->queued_dbs_.emplace(item.db, item.cls);
      s->recovery_pending_[item.db] = item.cls;
    }
    d.node_failovers = r.Get<uint64_t>();
    d.failover_requeues = r.Get<uint64_t>();
    s->outcomes_.clear();
    s->window_failures_ = 0;
    s->half_open_probes_issued_ = 0;
    s->half_open_successes_ = 0;
    if (r.failed) {
      return Status::Corruption("control-plane checkpoint truncated");
    }
    if (!IterationCountsAgree(s->resumed_per_iteration_,
                              d.observed_iterations, s->total_resumed_)) {
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
    Put<uint64_t>(out, epoch);
    Put<uint64_t>(out, last_seq);
    Put<uint64_t>(out, rows.size());
    for (const MetadataStore::ExportedEntry& row : rows) {
      Put<uint32_t>(out, row.db);
      Put<int32_t>(out, row.state_code);
      Put<int64_t>(out, row.predicted_start);
    }
    ServiceStateCodec::Serialize(svc, out);
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
  loaded.epoch = r.Get<uint64_t>();
  loaded.last_seq = r.Get<uint64_t>();
  uint64_t n_rows = r.Get<uint64_t>();
  for (uint64_t i = 0; i < n_rows && !r.failed; ++i) {
    DbId db = r.Get<uint32_t>();
    int32_t state_code = r.Get<int32_t>();
    EpochSeconds predicted_start = r.Get<int64_t>();
    if (r.failed) break;
    PRORP_RETURN_IF_ERROR(meta->RestoreUpsert(db, state_code,
                                              predicted_start));
  }
  PRORP_RETURN_IF_ERROR(ServiceStateCodec::Deserialize(svc, r));
  return loaded;
}

}  // namespace prorp::controlplane
