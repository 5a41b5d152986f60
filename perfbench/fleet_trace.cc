// Traced replay of the fleet simulator's fault-free event loop, the
// per-layer half of the benchmark.
//
// sim::RunFleetSimulation keeps its event loop private, so this program
// rebuilds it from the layers' public APIs (the same calls, in the same
// order, on the same inputs) and puts a span around every call into a
// layer:
//
//   workload     workload::TraceSource::Open, SessionCursor::Next
//   timer_wheel  sim::TimerWheel::Push, PopNextTick
//   lifecycle    policy::LifecycleController construction and On*
//   history      every history::HistoryStore call (a timing decorator
//                handed to the controller)
//   predictor    forecast::Predictor::PredictNextActivity (decorator)
//   metadata     controlplane::MetadataStore::UpsertState
//   mgmt         controlplane::ManagementService::RunOnce
//   transport    net::TransportDispatcher::DispatchResume, which carries
//                the request through the transport to the NodeAgent
//   journal      controlplane::DurableControlPlane::MaybeCheckpoint
//   ledger       telemetry::UsageLedger::SetPhase, Finish
//   loop         the rest: event dispatch, per-database bookkeeping, the
//                node-side resume executor and the tracer's own cost
//
// A layer's self time is its span time minus the spans it calls into:
// lifecycle self time excludes the history and predictor calls it makes
// and the metadata and ledger writes of its transition hook; management
// self time excludes the resume callback.  Allocations are attributed the
// same way.  Journal appends happen inside metadata upserts and management
// calls and count there.
//
// The replay covers the option subset the benchmark's workloads use: the
// proactive or reactive policy, streaming telemetry, in-memory or null
// history, direct or single-agent transport dispatch, optional durable
// journal.  It refuses anything else (storm layer, outages, injected
// failures, SQL history, crashes, multi-node transport).  run.py checks
// that its counters equal the untraced run's exactly; otherwise the
// per-layer numbers would describe a different program.
//
// Usage: the same flags as fleet_bench.  Prints one JSON line with the
// outcome fields of fleet_bench plus "layers" and "stats".

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <vector>

#include "common/arena.h"
#include "common/random.h"
#include "common/stats.h"
#include "controlplane/durable_control_plane.h"
#include "controlplane/management_service.h"
#include "controlplane/metadata_store.h"
#include "fleet_config.h"
#include "forecast/fast_predictor.h"
#include "history/mem_history_store.h"
#include "history/null_history_store.h"
#include "net/dispatcher.h"
#include "net/node_agent.h"
#include "net/transport.h"
#include "sim/timer_wheel.h"
#include "telemetry/histogram.h"
#include "telemetry/kpi.h"
#include "telemetry/usage_ledger.h"

namespace perfbench {
/// Heap allocations made by this process (operator new calls).
std::atomic<uint64_t> g_allocations{0};
}  // namespace perfbench

// Counting replacements of the global allocation functions; this is the
// only translation unit of fleet_trace that defines them.  fleet_bench
// keeps the default allocator so the end-to-end run pays nothing.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  perfbench::g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  perfbench::g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return ::operator new(size, std::nothrow);
}
void* operator new(std::size_t size, std::align_val_t align) {
  perfbench::g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p,
                     std::max(static_cast<std::size_t>(align), sizeof(void*)),
                     size == 0 ? 1 : size) == 0) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace perfbench {
namespace {

using prorp::DurationSeconds;
using prorp::EpochSeconds;
using prorp::Result;
using prorp::Status;
using prorp::controlplane::DurableControlPlane;
using prorp::controlplane::ManagementService;
using prorp::controlplane::MetadataStore;
using prorp::controlplane::ResumeAttempt;
using prorp::controlplane::ResumeClass;
using prorp::policy::DbState;
using prorp::policy::LifecycleController;
using prorp::policy::PolicyMode;
using prorp::policy::TransitionCause;
using prorp::telemetry::DbId;
using prorp::telemetry::EventKind;
using prorp::telemetry::Phase;

enum Layer : int {
  kLoop,
  kWorkload,
  kTimerWheel,
  kLifecycle,
  kHistory,
  kPredictor,
  kMetadata,
  kMgmt,
  kTransport,
  kJournal,
  kLedger,
  kNumLayers,
};

constexpr std::array<const char*, kNumLayers> kLayerNames = {
    "loop",      "workload", "timer_wheel", "lifecycle", "history", "predictor",
    "metadata",  "mgmt",     "transport",   "journal",   "ledger",
};

uint64_t Allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Stack of open spans with per-layer totals.  Closing a span charges its
/// duration (and allocations) minus those of its child spans to its own
/// layer, and its whole duration to its parent's child total.
class Tracer {
 public:
  struct LayerStats {
    uint64_t calls = 0;
    int64_t self_ns = 0;
    uint64_t self_allocs = 0;
  };

  void Begin(Layer layer) {
    if (depth_ == kMaxDepth) {
      std::fprintf(stderr, "fleet_trace: spans nested too deep\n");
      std::abort();
    }
    Frame& f = stack_[depth_++];
    f.layer = layer;
    f.child_ns = 0;
    f.child_allocs = 0;
    f.allocs = Allocations();
    f.start_ns = NowNs();
  }

  /// Closes the innermost span and returns its duration in nanoseconds.
  int64_t End() {
    const int64_t end_ns = NowNs();
    const uint64_t allocs = Allocations();
    const Frame& f = stack_[--depth_];
    const int64_t duration = end_ns - f.start_ns;
    const uint64_t span_allocs = allocs - f.allocs;
    LayerStats& s = stats_[f.layer];
    ++s.calls;
    s.self_ns += duration - f.child_ns;
    s.self_allocs += span_allocs - f.child_allocs;
    if (depth_ > 0) {
      stack_[depth_ - 1].child_ns += duration;
      stack_[depth_ - 1].child_allocs += span_allocs;
    }
    return duration;
  }

  const LayerStats& stats(Layer layer) const { return stats_[layer]; }

 private:
  struct Frame {
    Layer layer = kLoop;
    int64_t start_ns = 0;
    int64_t child_ns = 0;
    uint64_t allocs = 0;
    uint64_t child_allocs = 0;
  };
  static constexpr int kMaxDepth = 32;

  std::array<Frame, kMaxDepth> stack_{};
  int depth_ = 0;
  std::array<LayerStats, kNumLayers> stats_{};
};

class Span {
 public:
  Span(Tracer* tracer, Layer layer) : tracer_(tracer) { tracer_->Begin(layer); }
  ~Span() { tracer_->End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

/// Work counts measured at the layer boundaries.
struct LayerCounters {
  uint64_t wheel_pushes = 0;
  uint64_t wheel_pops = 0;
  uint64_t stale_events = 0;  // timer/eviction/latency events superseded
  uint64_t transitions = 0;
  uint64_t collect_calls = 0;
  uint64_t logins_copied = 0;
  uint64_t tuples_deleted = 0;
  uint64_t usable_predictions = 0;  // calls that returned a window
  std::vector<int64_t> predictor_ns;
  uint64_t mgmt_runs = 0;
  uint64_t mgmt_resumed = 0;
  uint64_t dispatches = 0;
  uint64_t retransmits = 0;
  uint64_t journal_records = 0;
  uint64_t journal_bytes = 0;
  uint64_t checkpoints = 0;
  int64_t checkpoint_ns = 0;  // MaybeCheckpoint calls that checkpointed
};

class TimedHistoryStore final : public prorp::history::HistoryStore {
 public:
  TimedHistoryStore(prorp::history::HistoryStore* inner, Tracer* tracer,
                    LayerCounters* counters)
      : inner_(inner), tracer_(tracer), counters_(counters) {}

  Status InsertHistory(EpochSeconds time, int event_type) override {
    Span span(tracer_, kHistory);
    return inner_->InsertHistory(time, event_type);
  }

  Result<bool> DeleteOldHistory(DurationSeconds h, EpochSeconds now) override {
    const uint64_t before = inner_->NumTuples();
    Result<bool> old = [&] {
      Span span(tracer_, kHistory);
      return inner_->DeleteOldHistory(h, now);
    }();
    counters_->tuples_deleted += before - inner_->NumTuples();
    return old;
  }

  Result<prorp::history::LoginRangeAgg> LoginMinMax(
      EpochSeconds lo, EpochSeconds hi) const override {
    Span span(tracer_, kHistory);
    return inner_->LoginMinMax(lo, hi);
  }

  Result<std::vector<EpochSeconds>> CollectLogins(
      EpochSeconds lo, EpochSeconds hi) const override {
    Result<std::vector<EpochSeconds>> logins = [&] {
      Span span(tracer_, kHistory);
      return inner_->CollectLogins(lo, hi);
    }();
    ++counters_->collect_calls;
    if (logins.ok()) counters_->logins_copied += logins->size();
    return logins;
  }

  Result<std::vector<prorp::history::HistoryTuple>> ReadAll() const override {
    Span span(tracer_, kHistory);
    return inner_->ReadAll();
  }

  Result<EpochSeconds> MinTimestamp() const override {
    Span span(tracer_, kHistory);
    return inner_->MinTimestamp();
  }

  uint64_t NumTuples() const override { return inner_->NumTuples(); }

 private:
  prorp::history::HistoryStore* inner_;
  Tracer* tracer_;
  LayerCounters* counters_;
};

class TimedPredictor final : public prorp::forecast::Predictor {
 public:
  TimedPredictor(prorp::PredictionConfig config, Tracer* tracer,
                 LayerCounters* counters)
      : inner_(config), tracer_(tracer), counters_(counters) {}

  Result<prorp::forecast::ActivityPrediction> PredictNextActivity(
      const prorp::history::HistoryStore& history,
      EpochSeconds now) const override {
    tracer_->Begin(kPredictor);
    Result<prorp::forecast::ActivityPrediction> prediction =
        inner_.PredictNextActivity(history, now);
    counters_->predictor_ns.push_back(tracer_->End());
    if (prediction.ok() && prediction->HasPrediction()) {
      ++counters_->usable_predictions;
    }
    return prediction;
  }

  std::string name() const override { return inner_.name(); }

 private:
  prorp::forecast::FastPredictor inner_;
  Tracer* tracer_;
  LayerCounters* counters_;
};

/// What the replay reports: the fields fleet_bench takes from
/// sim::SimReport, plus the end-of-run summaries the simulator also builds,
/// so the traced wall time covers the same work as the untraced one.
struct ReplayReport {
  prorp::telemetry::KpiReport kpi;
  prorp::telemetry::TimeBreakdown usage;
  uint64_t events_processed = 0;
  uint64_t pending_failed = 0;
  prorp::controlplane::DiagnosticsReport diagnostics;
  prorp::Summary resumed_per_iteration;
  prorp::Summary allocated_samples;
  prorp::telemetry::Histogram history_tuples_hist;
  prorp::telemetry::Histogram history_bytes_hist;
};

Status Unsupported(const char* what) {
  return Status::InvalidArgument(std::string("traced replay does not model ") +
                                 what);
}

/// Mirrors FleetSimulation (src/sim/fleet_simulator.cc) over the supported
/// option subset: same per-database state, same event types and push
/// order (so the same sequence numbers), same handlers.
class FleetReplay {
 public:
  FleetReplay(const prorp::workload::TraceSource& source,
              const prorp::sim::SimOptions& options, Tracer* tracer,
              LayerCounters* counters)
      : source_(&source),
        num_dbs_(source.num_dbs()),
        options_(options),
        tracer_(tracer),
        counters_(counters) {}

  Result<ReplayReport> Run();

 private:
  enum class EventType : uint8_t {
    kDbCreated,
    kAllocationSample,
    kSessionEnd,
    kSessionStart,
    kTimer,
    kResumeOpTick,
    kEviction,
    kResumeLatencyDone,
    kMeasureStart,
  };

  /// Same layout and ordering fields as the simulator's event.
  struct Event {
    EpochSeconds time;
    uint64_t seq;
    EventType type;
    DbId db;
    uint64_t aux;
  };

  static Status CheckSupported(const prorp::sim::SimOptions& o) {
    if (o.mode == PolicyMode::kAlwaysOn) return Unsupported("always-on");
    if (o.storm_layer_enabled()) return Unsupported("the storm layer");
    if (o.num_nodes > 0 || o.fleet_outage_duration > 0) {
      return Unsupported("node outages");
    }
    if (o.resume_failure_probability > 0) {
      return Unsupported("injected resume failures");
    }
    if (o.sql_history_count > 0 || o.scrub_interval > 0) {
      return Unsupported("SQL-backed history");
    }
    if (o.use_sql_scan_for_resume_op) return Unsupported("the SQL scan");
    if (o.control_plane_crash_at > 0) {
      return Unsupported("control-plane crashes");
    }
    if (o.failure_detection_enabled || o.node_crash_node >= 0) {
      return Unsupported("multi-node transport");
    }
    if (o.use_legacy_event_heap) return Unsupported("the legacy event heap");
    if (o.telemetry != prorp::sim::SimOptions::Telemetry::kStreaming) {
      return Unsupported("full telemetry");
    }
    if (o.num_threads > 1) return Unsupported("sharded runs");
    return Status::OK();
  }

  void Push(EpochSeconds time, EventType type, DbId db, uint64_t aux) {
    Event e{time, seq_++, type, db, aux};
    if (time <= tick_time_) {
      tick_.push_back(e);
      return;
    }
    ++counters_->wheel_pushes;
    Span span(tracer_, kTimerWheel);
    wheel_.Push(e);
  }

  void SyncTimer(DbId db) {
    EpochSeconds t = controllers_[db]->NextTimerAt();
    if (t == 0) {
      scheduled_timer_[db] = 0;
      return;
    }
    if (t != scheduled_timer_[db] ||
        scheduled_timer_gen_[db] != generation_[db]) {
      scheduled_timer_[db] = t;
      scheduled_timer_gen_[db] = generation_[db];
      Push(t, EventType::kTimer, db, generation_[db]);
    }
  }

  void SetPhase(DbId db, Phase phase, EpochSeconds time) {
    bool was_allocated =
        current_phase_[db] != Phase::kReclaimed && phase_known_[db];
    bool is_allocated = phase != Phase::kReclaimed;
    if (is_allocated && !was_allocated) ++allocated_now_;
    if (!is_allocated && was_allocated) --allocated_now_;
    phase_known_[db] = 1;
    {
      Span span(tracer_, kLedger);
      ledger_->SetPhase(db, phase, time);
    }
    current_phase_[db] = phase;
  }

  Status UpsertState(DbId db, DbState state, EpochSeconds predicted_start) {
    Span span(tracer_, kMetadata);
    return metadata_->UpsertState(db, state, predicted_start);
  }

  void OnTransition(DbId db, const prorp::policy::TransitionEvent& e);
  Status HandleDbCreated(const Event& ev);
  Status HandleSessionStart(const Event& ev);
  Status HandleSessionEnd(const Event& ev);
  Status HandleTimer(const Event& ev);
  Status HandleResumeOpTick(const Event& ev);
  Status HandleEviction(const Event& ev);
  void HandleResumeLatencyDone(const Event& ev);
  void HandleMeasureStart(const Event& ev);
  Status ExecuteResume(const ResumeAttempt& a, EpochSeconds now);
  ManagementService::ResumeCallback MakeServiceCallback();
  Status OpenDurableControlPlane();

  const prorp::workload::TraceSource* source_;
  size_t num_dbs_;
  prorp::sim::SimOptions options_;
  Tracer* tracer_;
  LayerCounters* counters_;

  prorp::sim::TimerWheel<Event> wheel_;
  uint64_t seq_ = 0;
  std::vector<Event> tick_;
  EpochSeconds tick_time_ = -1;
  uint64_t events_processed_ = 0;
  /// Set when the control plane hands the executor an attempt the
  /// simulator would route through a code path this replay omits.
  bool unsupported_attempt_ = false;

  prorp::ArenaPool<LifecycleController> controller_pool_;
  prorp::ArenaPool<prorp::history::MemHistoryStore> mem_history_pool_;
  prorp::ArenaPool<TimedHistoryStore> timed_history_pool_;
  prorp::history::NullHistoryStore null_history_;
  std::unique_ptr<TimedHistoryStore> timed_null_history_;
  std::vector<LifecycleController*> controllers_;
  std::vector<prorp::history::HistoryStore*> history_;
  std::vector<uint64_t> generation_;
  std::vector<EpochSeconds> scheduled_timer_;
  std::vector<uint64_t> scheduled_timer_gen_;
  std::vector<prorp::Rng> eviction_rng_;
  std::vector<std::unique_ptr<prorp::workload::SessionCursor>> cursors_;
  std::vector<EpochSeconds> cur_session_end_;
  std::vector<Phase> current_phase_;
  std::vector<uint8_t> phase_known_;

  int64_t allocated_now_ = 0;
  prorp::Summary allocated_samples_;
  std::unique_ptr<TimedPredictor> predictor_;
  std::unique_ptr<MetadataStore> owned_metadata_;
  std::unique_ptr<ManagementService> owned_management_;
  std::unique_ptr<DurableControlPlane> plane_;
  MetadataStore* metadata_ = nullptr;
  ManagementService* management_ = nullptr;
  std::unique_ptr<prorp::net::InProcessTransport> transport_;
  std::unique_ptr<prorp::net::NodeAgent> agent_;
  std::unique_ptr<prorp::net::TransportDispatcher> dispatcher_;
  std::unique_ptr<prorp::telemetry::UsageLedger> ledger_;
  prorp::telemetry::EventCounts counts_;
};

void FleetReplay::OnTransition(DbId db,
                               const prorp::policy::TransitionEvent& e) {
  ++counters_->transitions;
  ++generation_[db];
  (void)UpsertState(db, e.to, e.prediction.start);
  switch (e.to) {
    case DbState::kResumed:
      if (e.cause == TransitionCause::kReactiveResume) {
        SetPhase(db, Phase::kUnavailable, e.time);
        Push(e.time + options_.resume_latency, EventType::kResumeLatencyDone,
             db, generation_[db]);
      } else {
        SetPhase(db, Phase::kActive, e.time);
      }
      break;
    case DbState::kLogicallyPaused:
      if (e.cause == TransitionCause::kProactiveResume) {
        counts_.Add(EventKind::kProactiveResume);
        SetPhase(db, Phase::kIdleProactive, e.time);
      } else {
        counts_.Add(EventKind::kLogicalPause);
        SetPhase(db, Phase::kIdleLogical, e.time);
      }
      if (options_.eviction_per_hour > 0) {
        double mean_seconds = 3600.0 / options_.eviction_per_hour;
        EpochSeconds at =
            e.time + static_cast<DurationSeconds>(
                         eviction_rng_[db].NextExponential(mean_seconds));
        if (at < options_.end) {
          Push(at, EventType::kEviction, db, generation_[db]);
        }
      }
      break;
    case DbState::kPhysicallyPaused:
      counts_.Add(EventKind::kPhysicalPause);
      if (e.cause == TransitionCause::kForcedEviction) {
        counts_.Add(EventKind::kForcedEviction);
      }
      SetPhase(db, Phase::kReclaimed, e.time);
      break;
  }
}

Status FleetReplay::HandleDbCreated(const Event& ev) {
  DbId db = ev.db;
  if (options_.use_null_history) {
    history_[db] = timed_null_history_.get();
  } else {
    history_[db] = timed_history_pool_.Emplace(mem_history_pool_.Emplace(),
                                               tracer_, counters_);
  }
  if (!eviction_rng_.empty()) {
    eviction_rng_[db].Seed(options_.seed ^
                           (0x9E3779B97F4A7C15ULL *
                            (static_cast<uint64_t>(db) + 1)));
  }
  const prorp::forecast::Predictor* predictor =
      options_.mode == PolicyMode::kProactive ? predictor_.get() : nullptr;
  {
    Span span(tracer_, kLifecycle);
    controllers_[db] = controller_pool_.Emplace(
        options_.config.policy, options_.mode, history_[db], predictor,
        ev.time, [this, db](const prorp::policy::TransitionEvent& e) {
          OnTransition(db, e);
        });
  }
  PRORP_RETURN_IF_ERROR(UpsertState(db, DbState::kResumed, 0));
  SetPhase(db, Phase::kActive, ev.time);
  Push(cur_session_end_[db], EventType::kSessionEnd, db, 0);
  return Status::OK();
}

Status FleetReplay::HandleSessionStart(const Event& ev) {
  Result<prorp::policy::LoginOutcome> outcome = [&] {
    Span span(tracer_, kLifecycle);
    return controllers_[ev.db]->OnActivityStart(ev.time);
  }();
  PRORP_RETURN_IF_ERROR(outcome.status());
  if (*outcome == prorp::policy::LoginOutcome::kReactiveResume) {
    counts_.Add(EventKind::kLoginReactive);
  } else if (*outcome == prorp::policy::LoginOutcome::kResourcesAvailable) {
    counts_.Add(EventKind::kLoginAvailable);
  }
  SyncTimer(ev.db);
  Push(cur_session_end_[ev.db], EventType::kSessionEnd, ev.db, ev.aux);
  return Status::OK();
}

Status FleetReplay::HandleSessionEnd(const Event& ev) {
  {
    Span span(tracer_, kLifecycle);
    PRORP_RETURN_IF_ERROR(controllers_[ev.db]->OnActivityEnd(ev.time));
  }
  counts_.Add(EventKind::kLogout);
  SyncTimer(ev.db);
  prorp::workload::Session next;
  bool more = false;
  if (cursors_[ev.db] != nullptr) {
    Span span(tracer_, kWorkload);
    more = cursors_[ev.db]->Next(&next);
  }
  if (more) {
    cur_session_end_[ev.db] = next.end;
    Push(next.start, EventType::kSessionStart, ev.db, ev.aux + 1);
  } else {
    Span span(tracer_, kWorkload);
    cursors_[ev.db].reset();
  }
  return Status::OK();
}

Status FleetReplay::HandleTimer(const Event& ev) {
  if (controllers_[ev.db] == nullptr) return Status::OK();
  if (scheduled_timer_[ev.db] != ev.time ||
      scheduled_timer_gen_[ev.db] != ev.aux) {
    ++counters_->stale_events;
    return Status::OK();
  }
  scheduled_timer_[ev.db] = 0;
  if (controllers_[ev.db]->NextTimerAt() == ev.time) {
    Span span(tracer_, kLifecycle);
    PRORP_RETURN_IF_ERROR(controllers_[ev.db]->OnTimerCheck(ev.time));
  }
  SyncTimer(ev.db);
  return Status::OK();
}

Status FleetReplay::HandleResumeOpTick(const Event& ev) {
  ++counters_->mgmt_runs;
  {
    Span span(tracer_, kMgmt);
    PRORP_RETURN_IF_ERROR(management_->RunOnce(ev.time).status());
  }
  if (plane_ != nullptr) {
    // A checkpoint truncates the journal, so a smaller journal afterwards
    // marks one, and the size before it is the bytes it retired.
    const prorp::controlplane::ControlPlaneJournal& journal =
        plane_->journal();
    PRORP_ASSIGN_OR_RETURN(uint64_t before, journal.SizeBytes());
    tracer_->Begin(kJournal);
    Status s = plane_->MaybeCheckpoint();
    const int64_t ns = tracer_->End();
    PRORP_RETURN_IF_ERROR(s);
    PRORP_ASSIGN_OR_RETURN(uint64_t after, journal.SizeBytes());
    if (after < before) {
      ++counters_->checkpoints;
      counters_->checkpoint_ns += ns;
      counters_->journal_bytes += before;
    }
  }
  EpochSeconds next =
      ev.time + options_.config.control_plane.resume_operation_period;
  if (next < options_.end) Push(next, EventType::kResumeOpTick, 0, 0);
  return Status::OK();
}

Status FleetReplay::HandleEviction(const Event& ev) {
  LifecycleController* controller = controllers_[ev.db];
  if (controller == nullptr || generation_[ev.db] != ev.aux) {
    ++counters_->stale_events;
    return Status::OK();
  }
  if (controller->state() != DbState::kLogicallyPaused ||
      controller->active()) {
    return Status::OK();
  }
  {
    Span span(tracer_, kLifecycle);
    PRORP_RETURN_IF_ERROR(controller->OnForcedEviction(ev.time));
  }
  SyncTimer(ev.db);
  return Status::OK();
}

void FleetReplay::HandleResumeLatencyDone(const Event& ev) {
  if (controllers_[ev.db] == nullptr) return;
  if (generation_[ev.db] != ev.aux) {
    ++counters_->stale_events;
    return;
  }
  if (controllers_[ev.db]->active() &&
      current_phase_[ev.db] == Phase::kUnavailable) {
    SetPhase(ev.db, Phase::kActive, ev.time);
  }
}

void FleetReplay::HandleMeasureStart(const Event& ev) {
  auto fresh = std::make_unique<prorp::telemetry::UsageLedger>(num_dbs_,
                                                               ev.time);
  for (DbId db = 0; db < num_dbs_; ++db) {
    if (controllers_[db] != nullptr) {
      Span span(tracer_, kLedger);
      fresh->SetPhase(db, current_phase_[db], ev.time);
    }
  }
  ledger_ = std::move(fresh);
  counts_ = prorp::telemetry::EventCounts();
}

Status FleetReplay::ExecuteResume(const ResumeAttempt& a, EpochSeconds now) {
  // The simulator's node-side executor; under the supported options only
  // its pre-warm branch is reachable.
  Span span(tracer_, kLoop);
  if (a.node_offset != 0 || a.cls == ResumeClass::kReactiveLogin ||
      a.cls == ResumeClass::kMaintenance) {
    unsupported_attempt_ = true;
    return Status::Internal("attempt outside the replayed subset");
  }
  if (controllers_[a.db] == nullptr) {
    return Status::FailedPrecondition("database not yet created");
  }
  Status s = [&] {
    Span lifecycle(tracer_, kLifecycle);
    return controllers_[a.db]->OnProactiveResume(now);
  }();
  if (s.ok()) SyncTimer(a.db);
  return s;
}

ManagementService::ResumeCallback FleetReplay::MakeServiceCallback() {
  auto execute = [this](const ResumeAttempt& a, EpochSeconds now) {
    return ExecuteResume(a, now);
  };
  if (!options_.use_transport) return execute;
  // The simulator's single-agent wiring: one dispatcher on the plane side,
  // one agent standing in for every node, acks resolved inline.
  transport_ = std::make_unique<prorp::net::InProcessTransport>();
  dispatcher_ = std::make_unique<prorp::net::TransportDispatcher>(
      transport_.get(), prorp::net::TransportDispatcher::Options{});
  agent_ = std::make_unique<prorp::net::NodeAgent>(1, transport_.get(),
                                                   execute);
  return [this](const ResumeAttempt& a, EpochSeconds now) {
    Span span(tracer_, kTransport);
    return dispatcher_->DispatchResume(a, now);
  };
}

Status FleetReplay::OpenDurableControlPlane() {
  DurableControlPlane::Options cp;
  cp.dir = options_.control_plane_journal_dir;
  cp.config = options_.config.control_plane;
  cp.sync_mode = prorp::controlplane::ControlPlaneJournal::SyncMode::kBuffered;
  cp.checkpoint_every = options_.control_plane_checkpoint_every;
  PRORP_ASSIGN_OR_RETURN(
      plane_, DurableControlPlane::Open(
                  cp, MakeServiceCallback(),
                  [this](DbId db) {
                    return controllers_[db] != nullptr &&
                           controllers_[db]->state() !=
                               DbState::kPhysicallyPaused;
                  },
                  /*now=*/0));
  metadata_ = &plane_->metadata();
  management_ = &plane_->service();
  return Status::OK();
}

Result<ReplayReport> FleetReplay::Run() {
  PRORP_RETURN_IF_ERROR(CheckSupported(options_));
  PRORP_RETURN_IF_ERROR(options_.config.Validate());
  if (options_.end <= 0) {
    return Status::InvalidArgument("SimOptions.end is required");
  }
  if (options_.use_null_history && options_.mode == PolicyMode::kProactive) {
    return Status::InvalidArgument("proactive runs need real history");
  }
  const size_t n = num_dbs_;
  controllers_.assign(n, nullptr);
  history_.assign(n, nullptr);
  generation_.assign(n, 0);
  scheduled_timer_.assign(n, 0);
  scheduled_timer_gen_.assign(n, 0);
  if (options_.eviction_per_hour > 0) eviction_rng_.assign(n, prorp::Rng(0));
  cursors_.resize(n);
  cur_session_end_.assign(n, 0);
  current_phase_.assign(n, Phase::kReclaimed);
  phase_known_.assign(n, 0);
  predictor_ = std::make_unique<TimedPredictor>(
      options_.config.policy.prediction, tracer_, counters_);
  if (options_.use_null_history) {
    timed_null_history_ = std::make_unique<TimedHistoryStore>(
        &null_history_, tracer_, counters_);
  }

  if (!options_.control_plane_journal_dir.empty()) {
    PRORP_RETURN_IF_ERROR(OpenDurableControlPlane());
  } else {
    PRORP_ASSIGN_OR_RETURN(owned_metadata_,
                           MetadataStore::Open(
                               options_.use_lite_metadata
                                   ? MetadataStore::Backing::kIndexOnly
                                   : MetadataStore::Backing::kSqlMirrored));
    metadata_ = owned_metadata_.get();
    owned_management_ = std::make_unique<ManagementService>(
        metadata_, options_.config.control_plane, MakeServiceCallback());
    management_ = owned_management_.get();
  }
  if (dispatcher_ != nullptr) {
    dispatcher_->set_service(management_);
    agent_->FenceEpoch(management_->epoch());
  }

  const EpochSeconds measure_from = options_.measure_from;
  ledger_ = std::make_unique<prorp::telemetry::UsageLedger>(
      n, measure_from > 0 ? measure_from : 0, /*track_per_db=*/false);

  EpochSeconds earliest_start = options_.end;
  for (DbId db = 0; db < n; ++db) {
    std::unique_ptr<prorp::workload::SessionCursor> cursor;
    prorp::workload::Session first;
    bool any = false;
    {
      Span span(tracer_, kWorkload);
      cursor = source_->Open(db);
    }
    {
      Span span(tracer_, kWorkload);
      any = cursor->Next(&first);
    }
    if (!any) continue;
    earliest_start = std::min(earliest_start, first.start);
    if (first.start < options_.end) {
      cur_session_end_[db] = first.end;
      cursors_[db] = std::move(cursor);
      Push(first.start, EventType::kDbCreated, db, 0);
    }
  }
  if (options_.mode == PolicyMode::kProactive &&
      options_.proactive_resume_enabled && earliest_start + 1 < options_.end) {
    Push(earliest_start + 1, EventType::kResumeOpTick, 0, 0);
  }
  if (measure_from > 0) Push(measure_from, EventType::kMeasureStart, 0, 0);
  Push(measure_from > 0 ? measure_from : options_.end - 1,
       EventType::kAllocationSample, 0, 0);

  bool done = false;
  while (!done) {
    bool popped = false;
    {
      Span span(tracer_, kTimerWheel);
      popped = wheel_.PopNextTick(&tick_);
    }
    if (!popped) break;
    counters_->wheel_pops += tick_.size();
    if (tick_.front().time >= options_.end) break;
    tick_time_ = tick_.front().time;
    for (size_t i = 0; i < tick_.size(); ++i) {
      Event ev = tick_[i];
      if (ev.time >= options_.end) {
        done = true;
        break;
      }
      ++events_processed_;
      switch (ev.type) {
        case EventType::kDbCreated:
          PRORP_RETURN_IF_ERROR(HandleDbCreated(ev));
          break;
        case EventType::kSessionStart:
          PRORP_RETURN_IF_ERROR(HandleSessionStart(ev));
          break;
        case EventType::kSessionEnd:
          PRORP_RETURN_IF_ERROR(HandleSessionEnd(ev));
          break;
        case EventType::kTimer:
          PRORP_RETURN_IF_ERROR(HandleTimer(ev));
          break;
        case EventType::kResumeOpTick:
          PRORP_RETURN_IF_ERROR(HandleResumeOpTick(ev));
          break;
        case EventType::kEviction:
          PRORP_RETURN_IF_ERROR(HandleEviction(ev));
          break;
        case EventType::kResumeLatencyDone:
          HandleResumeLatencyDone(ev);
          break;
        case EventType::kMeasureStart:
          HandleMeasureStart(ev);
          break;
        case EventType::kAllocationSample: {
          allocated_samples_.Add(static_cast<double>(allocated_now_));
          EpochSeconds next_sample = ev.time + prorp::Minutes(5);
          if (next_sample < options_.end) {
            Push(next_sample, EventType::kAllocationSample, 0, 0);
          }
          break;
        }
      }
    }
    tick_time_ = -1;
    if (tick_.capacity() > 4096 && tick_.size() < tick_.capacity() / 4) {
      std::vector<Event>().swap(tick_);
    } else {
      tick_.clear();
    }
  }
  if (unsupported_attempt_) {
    return Status::Internal("control plane dispatched an unreplayed attempt");
  }
  {
    Span span(tracer_, kLedger);
    ledger_->Finish(options_.end);
  }

  ReplayReport report;
  report.usage = ledger_->fleet_total();
  report.kpi = prorp::telemetry::ComputeKpi(counts_, report.usage);
  for (const LifecycleController* controller : controllers_) {
    if (controller == nullptr) continue;
    report.kpi.predictions += controller->stats().predictions_made;
  }
  report.events_processed = events_processed_;
  report.pending_failed = management_->pending_failed();
  report.diagnostics = management_->diagnostics();
  report.resumed_per_iteration = management_->resumed_per_iteration();
  report.allocated_samples = allocated_samples_;
  for (DbId db = 0; db < n; ++db) {
    if (history_[db] == nullptr) continue;
    uint64_t tuples = history_[db]->NumTuples();
    report.history_tuples_hist.Add(static_cast<int64_t>(tuples));
    report.history_bytes_hist.Add(
        static_cast<int64_t>(history_[db]->SizeBytes()));
  }
  counters_->mgmt_resumed = management_->total_resumed();
  if (dispatcher_ != nullptr) {
    counters_->dispatches = dispatcher_->stats().dispatched;
    counters_->retransmits = dispatcher_->stats().retransmissions;
  }
  if (plane_ != nullptr) {
    counters_->journal_records = plane_->journal().appended_records();
    PRORP_ASSIGN_OR_RETURN(uint64_t bytes, plane_->journal().SizeBytes());
    counters_->journal_bytes += bytes;
  }
  return report;
}

int64_t Percentile(std::vector<int64_t> values, double q) {
  if (values.empty()) return 0;
  size_t k = static_cast<size_t>(q * static_cast<double>(values.size() - 1));
  std::nth_element(values.begin(), values.begin() + static_cast<long>(k),
                   values.end());
  return values[k];
}

int Main(int argc, char** argv) {
  FleetArgs args;
  if (!ParseFleetArgs(argc, argv, &args)) return 2;
  if (!args.journal_dir.empty() && std::filesystem::exists(args.journal_dir)) {
    return PrintError("journal directory already exists: " + args.journal_dir);
  }

  Tracer tracer;
  LayerCounters counters;
  counters.predictor_ns.reserve(size_t{1} << 20);

  Clock::time_point start = Clock::now();
  std::unique_ptr<prorp::workload::StreamingFleetSource> source =
      MakeSource(args);
  SetupClockSource timed_source(source.get());
  prorp::sim::SimOptions options = MakeOptions(args);
  const uint64_t allocs_before = Allocations();
  tracer.Begin(kLoop);
  Result<ReplayReport> report = [&] {
    FleetReplay replay(timed_source, options, &tracer, &counters);
    return replay.Run();
  }();
  const int64_t run_ns = tracer.End();
  const uint64_t run_allocs = Allocations() - allocs_before;

  const bool journal_written =
      args.journal_dir.empty() ||
      std::filesystem::exists(args.journal_dir + "/journal.wal");
  const bool journal_removed = RemoveJournalDir(args.journal_dir);
  if (!report.ok()) return PrintError(report.status().ToString());
  if (!journal_written) return PrintError("durable run left no journal");
  if (!journal_removed) return PrintError("cannot remove journal directory");

  std::printf("{\"ok\": true, \"run_s\": %.9f, \"setup_s\": %.9f, ",
              static_cast<double>(run_ns) * 1e-9,
              Seconds(timed_source.last_open() - start));
  PrintOutcomeFields(stdout, report->kpi, report->usage,
                     report->events_processed);
  std::printf(", \"pending_failed\": %llu, \"incidents\": %llu",
              static_cast<unsigned long long>(report->pending_failed),
              static_cast<unsigned long long>(report->diagnostics.incidents));
  std::printf(", \"layers\": {");
  for (int layer = 0; layer < kNumLayers; ++layer) {
    const Tracer::LayerStats& s = tracer.stats(static_cast<Layer>(layer));
    std::printf("%s\"%s\": {\"calls\": %llu, \"self_s\": %.9f, "
                "\"allocs\": %llu}",
                layer == 0 ? "" : ", ", kLayerNames[layer],
                static_cast<unsigned long long>(s.calls),
                static_cast<double>(s.self_ns) * 1e-9,
                static_cast<unsigned long long>(s.self_allocs));
  }
  const LayerCounters& c = counters;
  std::printf(
      "}, \"stats\": {\"run_allocs\": %llu, \"wheel_pushes\": %llu, "
      "\"wheel_pops\": %llu, \"stale_events\": %llu, \"transitions\": %llu, "
      "\"collect_calls\": %llu, \"logins_copied\": %llu, "
      "\"tuples_deleted\": %llu, \"usable_predictions\": %llu, "
      "\"predictor_p50_ns\": %lld, \"predictor_p99_ns\": %lld, "
      "\"mgmt_runs\": %llu, \"mgmt_resumed\": %llu, \"dispatches\": %llu, "
      "\"retransmits\": %llu, \"journal_records\": %llu, "
      "\"journal_bytes\": %llu, \"checkpoints\": %llu, "
      "\"checkpoint_s\": %.9f}}\n",
      static_cast<unsigned long long>(run_allocs),
      static_cast<unsigned long long>(c.wheel_pushes),
      static_cast<unsigned long long>(c.wheel_pops),
      static_cast<unsigned long long>(c.stale_events),
      static_cast<unsigned long long>(c.transitions),
      static_cast<unsigned long long>(c.collect_calls),
      static_cast<unsigned long long>(c.logins_copied),
      static_cast<unsigned long long>(c.tuples_deleted),
      static_cast<unsigned long long>(c.usable_predictions),
      static_cast<long long>(Percentile(c.predictor_ns, 0.50)),
      static_cast<long long>(Percentile(c.predictor_ns, 0.99)),
      static_cast<unsigned long long>(c.mgmt_runs),
      static_cast<unsigned long long>(c.mgmt_resumed),
      static_cast<unsigned long long>(c.dispatches),
      static_cast<unsigned long long>(c.retransmits),
      static_cast<unsigned long long>(c.journal_records),
      static_cast<unsigned long long>(c.journal_bytes),
      static_cast<unsigned long long>(c.checkpoints),
      static_cast<double>(c.checkpoint_ns) * 1e-9);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
