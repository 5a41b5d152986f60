#ifndef PRORP_SIM_FLEET_SIMULATOR_H_
#define PRORP_SIM_FLEET_SIMULATOR_H_

#include <vector>

#include "common/config.h"
#include "common/result.h"
#include "common/stats.h"
#include "controlplane/management_service.h"
#include "policy/lifecycle_controller.h"
#include "telemetry/fault_stats.h"
#include "telemetry/histogram.h"
#include "telemetry/kpi.h"
#include "workload/trace.h"
#include "workload/trace_source.h"

namespace prorp::sim {

/// Configuration of one region-scale simulation run.
struct SimOptions {
  ProrpConfig config;
  policy::PolicyMode mode = policy::PolicyMode::kProactive;

  /// KPI measurement window [measure_from, end).  Everything before
  /// measure_from is warm-up (history accumulation); 0 = measure from the
  /// beginning of the traces.
  EpochSeconds measure_from = 0;
  /// Simulation end (required; must be after all warm-up).
  EpochSeconds end = 0;

  /// Reaction time between a demand signal against a physically paused
  /// database and resources becoming available (the reactive-resume delay
  /// of Section 2.2).  With the storm layer enabled this becomes the BASE
  /// service time of the per-node queueing model: actual latency is base
  /// plus congestion wait (slots, tokens, outages).
  DurationSeconds resume_latency = 60;

  // --- Resume-storm layer (DESIGN.md section 8) ---
  /// Finite per-node resume concurrency; > 0 enables the storm layer:
  /// resumes run through a NodeCapacityModel (slots + token bucket),
  /// reactive logins route through the management service's multi-class
  /// queue, and resume latency inflates under load.  0 keeps the legacy
  /// scalar resume_latency model.
  int resume_concurrency_per_node = 0;
  /// Token-bucket admission limiter per node: resume starts per second
  /// (0 = unlimited) and burst allowance.
  double node_admission_rate = 0;
  double node_admission_burst = 4;
  /// Deterministic jitter bound on contended resume grants.
  DurationSeconds resume_queue_jitter_max = 5;
  /// One fleet-wide correlated outage window [at, at + duration): every
  /// node is down — the storm scenario's trigger.  duration <= 0
  /// disables.  Composes with the per-node random outages below.
  EpochSeconds fleet_outage_at = 0;
  DurationSeconds fleet_outage_duration = 0;
  /// Periodic maintenance-resume load (storm layer + proactive mode):
  /// every interval, up to `batch` physically paused databases are
  /// enqueued as lowest-class maintenance touches.  0 disables.
  DurationSeconds maintenance_interval = 0;
  size_t maintenance_batch = 0;

  bool storm_layer_enabled() const { return resume_concurrency_per_node > 0; }

  /// Per-hour hazard of a logically paused database being reclaimed early
  /// by node capacity pressure (0 disables).
  double eviction_per_hour = 0;

  /// Injected probability that one proactive-resume workflow attempt
  /// fails transiently (exercises the diagnostics/mitigation runner).
  double resume_failure_probability = 0;

  /// Fleet-level correlated outages.  The fleet is spread across
  /// `num_nodes` nodes (node = db id % num_nodes); each node
  /// independently suffers outage windows of length `outage_duration`
  /// with exponential gaps averaging one outage per
  /// 1/outage_rate_per_day days.  While a node is down, every
  /// proactive-resume workflow targeting one of its databases fails
  /// (feeding the backoff/breaker machinery); customer logins still
  /// reactively resume — the reactive path rides on the customer's
  /// connection retry loop, which an outage delays but does not break.
  /// The schedule is derived from `seed` and the node index alone.
  /// num_nodes <= 0 or outage_rate_per_day <= 0 disables outages.
  int num_nodes = 0;
  double outage_rate_per_day = 0;
  DurationSeconds outage_duration = Minutes(10);

  /// Number of databases — the lowest ids — whose history runs on the
  /// real SQL-backed store (checksummed pages, WAL, snapshots) instead of
  /// the in-memory one.  0 = all in-memory (the fast default).
  uint64_t sql_history_count = 0;

  /// Period of the background integrity scrubber over the SQL-backed
  /// history stores (0 disables).  Each tick checksum-verifies every page
  /// and walks the B+tree invariants; a dirty store self-heals from
  /// snapshot + WAL or is quarantined.  Counters land in the robustness
  /// report.
  DurationSeconds scrub_interval = 0;

  /// Disables the control plane's proactive resume operation (ablation:
  /// proactive pause without proactive resume).
  bool proactive_resume_enabled = true;

  /// Route Algorithm 5's selection through the literal SQL scan instead
  /// of the ordered index (slow; for validation runs).  Only this path
  /// opens the metadata store's sys.databases SQL mirror
  /// (MetadataStore::Backing::kSqlMirrored); every other run keeps the
  /// index alone.
  bool use_sql_scan_for_resume_op = false;

  // --- Durable control plane (DESIGN.md section 10) ---
  /// The metadata store and management service always run inside one
  /// DurableControlPlane.  Non-empty: every externally visible
  /// control-plane transition is journaled to `<dir>/journal.wal`
  /// (buffered sync; the simulated fsync boundary is the crash event
  /// below) and periodically folded into `<dir>/checkpoint.bin`.  Empty
  /// (default): the same plane runs with no journal and no checkpoint.
  std::string control_plane_journal_dir;
  /// Journal records between automatic checkpoints (durable mode only).
  uint64_t control_plane_checkpoint_every = 4096;
  /// Simulated control-plane process death at this instant: the plane is
  /// destroyed mid-run and recovered from journal + checkpoint, then the
  /// simulation continues under the new incarnation.  0 = never; requires
  /// control_plane_journal_dir.
  EpochSeconds control_plane_crash_at = 0;

  /// No effect; deleted once perfbench stops naming it.  Every resume
  /// dispatch crosses the message transport (net::TransportDispatcher ->
  /// InProcessTransport -> one NodeAgent per node, max(1, num_nodes)).
  bool use_transport = false;

  // --- Failure detection + fenced failover (DESIGN.md section 12) ---
  /// Enables the lease-driven node health subsystem on top of the message
  /// transport: the dispatcher runs a lease loop against one NodeAgent per
  /// node, a NodeHealthTracker scores grant silence and reply latency, and
  /// a FailoverEngine re-places a declared dead node's databases as
  /// reactive-priority work.  Fault-free this is pure observation — the
  /// run's workload output is identical to a run without it.  The
  /// detector's timing is fixed in fleet_simulator.cc.
  bool failure_detection_enabled = false;

  /// One injected node-crash window [node_crash_at, node_crash_at +
  /// node_crash_duration): the node's agent drops every message, and the
  /// idle (logically paused) databases it hosted are force-evicted — the
  /// node died, their warm resources died with it.  With detection
  /// enabled the tracker declares the node dead and the failover engine
  /// re-places those databases on survivors; without it (the passive
  /// baseline) they stay paused until their next login rides the
  /// retransmit/timeout machinery.  node_crash_node must be below
  /// max(1, num_nodes); node_crash_node < 0 disables.
  int node_crash_node = -1;
  EpochSeconds node_crash_at = 0;
  DurationSeconds node_crash_duration = 0;

  // --- Scale layer (DESIGN.md section 13) ---
  /// Must be false: the event queue is always the hierarchical timer
  /// wheel (RunFleetSimulation rejects true).  Deleted once perfbench
  /// stops naming it.
  bool use_legacy_event_heap = false;

  /// Telemetry detail.  kFull buffers every fleet event in the report's
  /// Recorder (O(events) memory — what the figure benches and CSV export
  /// consume).  kStreaming keeps only the running counters and log2
  /// histograms: O(fleet) memory however long the run; report.recorder
  /// stays empty and the per-event Summaries (login_delay,
  /// history_tuples/bytes) are replaced by their histogram forms.
  enum class Telemetry : uint8_t { kFull, kStreaming };
  Telemetry telemetry = Telemetry::kFull;

  /// Share one write-discarding history store across the fleet instead of
  /// one in-memory store per database.  Valid for reactive and always-on
  /// policies, whose controllers write history but never read it back;
  /// proactive mode (which predicts from history) rejects this flag.
  /// Databases covered by sql_history_count keep their SQL-backed store.
  bool use_null_history = false;

  /// No effect: the metadata store opens its SQL mirror only for
  /// use_sql_scan_for_resume_op, so every other run is already index-only
  /// (MetadataStore::Backing::kIndexOnly).  RunFleetSimulation still
  /// rejects it together with use_sql_scan_for_resume_op.  Deleted once
  /// perfbench stops naming it.
  bool use_lite_metadata = false;

  uint64_t seed = 42;

  /// Must be 1: every run is one serial event loop (RunFleetSimulation
  /// rejects any other value).  Deleted once perfbench stops naming it.
  int num_threads = 1;
};

/// Everything a bench needs from one run.
struct SimReport {
  telemetry::KpiReport kpi;
  /// Running per-kind event counters over the measurement window.  Always
  /// populated (both telemetry modes); the KPI report is computed from
  /// these, so streaming runs lose no KPI fidelity.
  telemetry::EventCounts counts;
  /// Events within the measurement window.  Empty under
  /// Telemetry::kStreaming.
  telemetry::Recorder recorder;
  /// Fleet-total seconds per phase over the measurement window, in raw
  /// form (the KPI percentages are computed from it).
  telemetry::TimeBreakdown usage;
  controlplane::DiagnosticsReport diagnostics;
  /// Fault-injection and graceful-degradation counters.
  telemetry::RobustnessReport robustness;
  /// Workflows still queued with >= 1 failed attempt when the run ended —
  /// the open term of the accounting invariant
  ///   stuck_workflows == mitigated + incidents + failed_then_skipped
  ///                      + pending_failed.
  uint64_t pending_failed = 0;
  /// Databases proactively resumed per operation iteration (Figure 11).
  Summary resumed_per_iteration;
  /// Reactive login-to-resources delay samples inside the measurement
  /// window (storm layer only; empty otherwise — the legacy model's delay
  /// is the constant resume_latency).
  Summary login_delay;
  /// Congestion waits of every capacity grant (storm layer only).
  Summary resume_waits;
  /// Per-database history sizes at simulation end (Figure 10(a)/(b)).
  Summary history_tuples;
  Summary history_bytes;
  /// Number of databases with resources allocated, sampled every 5
  /// simulated minutes inside the measurement window.  Peak concurrent
  /// allocation determines how many physical machines the region needs
  /// (paper Section 11, future work 3: aligning the pause policy with
  /// tenant placement).
  Summary allocated_samples;
  /// Durable-control-plane mode: completed mid-run recoveries and the
  /// journal records replayed by the last one (0 in legacy mode).
  uint64_t control_plane_recoveries = 0;
  uint64_t control_plane_replayed = 0;
  /// Algorithm 5 ticks counted instead of run: the management service was
  /// idle (ManagementService::IdleAt), so RunOnce would have changed only
  /// its iteration counters, and the next RunOnce counted them.
  /// diagnostics.observed_iterations and resumed_per_iteration include
  /// them; the journal holds no frame of their own.
  uint64_t resume_ticks_skipped = 0;
  EpochSeconds measure_from = 0;
  EpochSeconds measure_end = 0;

  // --- Scale-layer telemetry ---
  /// Simulation events executed by the event loop (all phases, warm-up
  /// included) — the numerator of the bench_fleet_scale throughput gate.
  uint64_t events_processed = 0;
  /// Log2-bucket forms of login_delay and history_tuples/bytes,
  /// populated in both telemetry modes (the only tail-latency view a
  /// streaming run has; O(1) memory).
  telemetry::Histogram login_delay_hist;
  telemetry::Histogram history_tuples_hist;
  telemetry::Histogram history_bytes_hist;
  /// Event storage held at run end: the timer wheel's node pool
  /// (payloads and links, by capacity; not its fixed ~49 KB of slot heads
  /// and bitmaps) plus the tick buffer's capacity.  The regression metric
  /// of the post-storm pool compaction.
  uint64_t event_queue_bytes = 0;
};

/// Runs the full ProRP stack over the fleet: one history store and
/// lifecycle controller per database, the metadata store, the management
/// service's periodic proactive resume operation, capacity-pressure
/// evictions, and reactive-resume latency — all on one single-threaded
/// discrete event loop.  Sessions are pulled from the source
/// database-by-database, so a streaming source runs a million-database
/// fleet without materializing any trace.
Result<SimReport> RunFleetSimulation(const workload::TraceSource& source,
                                     const SimOptions& options);

/// Convenience overload over a materialized fleet.
Result<SimReport> RunFleetSimulation(
    const std::vector<workload::DbTrace>& traces, const SimOptions& options);

}  // namespace prorp::sim

#endif  // PRORP_SIM_FLEET_SIMULATOR_H_
