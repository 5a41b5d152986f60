#ifndef PRORP_SIM_PLANE_TORTURE_H_
#define PRORP_SIM_PLANE_TORTURE_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/stats.h"
#include "controlplane/journal.h"
#include "net/transport.h"

namespace prorp::sim {

/// One injected node fault, active over [at_step, at_step + duration).
struct NodeFaultSpec {
  enum class Kind : uint8_t {
    kCrash,   ///< process death: deaf to messages, side effects destroyed
    kZombie,  ///< asymmetric partition: keeps receiving and executing,
              ///< every message it sends is lost one-way
    kSlow,    ///< gray failure: alive and correct, replies delayed
    kDeaf,    ///< asymmetric partition: everything the plane sends the
              ///< node (requests, renewals) is lost, its replies arrive
    kPartition,  ///< symmetric partition: nothing crosses either way
  };
  Kind kind = Kind::kCrash;
  uint32_t node = 1;  ///< node endpoint id (1-based)
  int at_step = 40;
  int duration_steps = 20;
  /// kSlow only: fixed delay applied to everything the node sends.
  DurationSeconds slow_delay = 120;
};

/// One control-plane torture run.  A deterministic workload (proactive
/// selections, reactive logins, pause churn, optional storm and
/// resume-path outage) drives a DurableControlPlane whose every resume
/// travels the full transport stack: a TransportDispatcher on the plane
/// side, one NodeAgent per node, and a FaultInjectingTransport between
/// them.  Layered on top, each optional:
///  * message faults (drops, duplicates, delays) from a seeded plan;
///  * node faults (crashes, zombie/deaf/symmetric partitions, gray-slow
///    nodes), with the lease-driven failure detector and the fenced
///    failover engine wired in to detect them and re-place databases;
///  * control-plane deaths: a crash at a fixed step, an armed crash point
///    that kills the plane mid-transition, or probabilistic journal I/O
///    faults.  Every plane call tolerates a death; recovery reopens the
///    directory, rebuilds the failure detector, and the workload
///    continues, as many times as it takes.
///
/// With no message faults the wire delivers inline, so every dispatch
/// resolves synchronously with the node's verdict: the same
/// ManagementService outcome path as a direct call.
///
/// Invariants the result exposes (the matrix tests assert them):
///  * zero accepted-login loss,
///  * zero double-applies and zero stale-epoch applies,
///  * zero double-live and zero fence violations,
///  * accounting reconciles after the drain.
struct PlaneTortureOptions {
  std::string dir;  // working directory for journal + checkpoint
  uint64_t seed = 1;
  int num_dbs = 48;
  int num_nodes = 4;
  int steps = 200;  // virtual-clock steps of one minute each
  bool storm = false;   // login-spike storm mid-run
  bool outage = false;  // resume-path outage window mid-run
  /// Probability a node execution fails transiently.
  double fail_probability = 0.05;
  uint64_t checkpoint_every = 64;
  // Message-fault probabilities (transport-only RNG stream).
  double drop_p = 0.0;
  double duplicate_p = 0.0;
  double delay_p = 0.0;
  std::vector<NodeFaultSpec> faults;
  /// False = passive baseline: leases stay telemetry-only (ttl 0), no
  /// tracker, no failover engine, no diversion — recovery from a node
  /// fault happens only through retry/timeout attrition.
  bool detection_enabled = true;
  DurationSeconds lease_interval = 60;
  DurationSeconds lease_ttl = 240;
  DurationSeconds suspect_after = 150;
  DurationSeconds dead_grace = 120;
  DurationSeconds rejoin_after = 600;
  DurationSeconds slow_p99_threshold = 60;
  int min_latency_samples = 8;
  int crash_at_step = -1;  // control-plane crash/recovery at this step
  /// Crash point to arm ("" = none), its 1-based nth hit, and payload
  /// (for kCpJournalPreSync: the surviving-prefix selector).
  std::string crash_point;
  uint64_t crash_nth = 1;
  uint64_t crash_payload = 0;
  /// Probability a journal WAL append/sync fails per op, via a
  /// per-incarnation FaultPlan; each failure fail-stops the incarnation.
  double journal_fault_probability = 0.0;
  /// Journal sync mode of every incarnation.  kDurable fsyncs each
  /// record; kBuffered is the fleet simulator's mode (records reach the
  /// page cache through the WAL's mapped tail, checkpoints skip their
  /// fsyncs).
  controlplane::ControlPlaneJournal::SyncMode sync_mode =
      controlplane::ControlPlaneJournal::SyncMode::kDurable;
  int max_recoveries = 64;
};

struct PlaneTortureResult {
  bool crash_fired = false;  ///< the armed crash point fired
  int recoveries = 0;        ///< control-plane crash/recovery cycles
  uint64_t accepted_reactive = 0;
  /// Acked logins whose database was still not resumed after the final
  /// drain — must be zero.
  uint64_t lost_reactive = 0;
  /// A request id side-effecting twice — must be zero.
  uint64_t double_applies = 0;
  /// A request below the node's epoch fence executed — must be zero.
  uint64_t stale_epoch_applied = 0;
  /// Non-hedge dispatches that reached an already-resumed database on
  /// behalf of a workflow accepted before that resume.  Zero only on a
  /// lossless wire: there it means recovery re-sent a workflow it should
  /// have reconciled.  On a lossy wire a timed-out dispatch is re-sent
  /// with a fresh request id by design, so the count is not an invariant.
  uint64_t duplicate_resumes = 0;
  /// A database executed a resume while its side effects were still live
  /// on another node — must be zero (the lease fence failed).
  uint64_t double_live = 0;
  /// A node executed work while its own lease was lapsed — must be zero
  /// (the self-quiesce fence failed).
  uint64_t fence_violations = 0;
  /// A breaker that was open at a crash recovered closed — must be false
  /// (conservative restore).
  bool breaker_recovered_closed_early = false;
  // Detection / failover telemetry.
  uint64_t deaths_declared = 0;
  uint64_t failover_requeues = 0;
  uint64_t failover_deduped = 0;
  uint64_t diverted_dispatches = 0;  ///< routed off a dead home node
  uint64_t self_quiesces = 0;
  uint64_t lease_expired_rejected = 0;
  uint64_t lease_probes = 0;
  uint64_t node_rejoins = 0;
  uint64_t suspects_gray_failure = 0;
  // Wire defenses.
  uint64_t duplicate_suppressed = 0;  ///< node dedup-table hits
  uint64_t stale_epoch_rejected = 0;  ///< node fence rejections
  uint64_t late_acks = 0;
  uint64_t stale_epoch_acks = 0;
  // Workload telemetry.
  uint64_t incidents = 0;
  uint64_t dispatch_timeouts = 0;
  uint64_t retransmissions = 0;
  uint64_t total_resumed = 0;
  bool accounting_ok = false;
  bool drained = false;
  /// Fault onset -> death declaration, seconds, one sample per death.
  Summary detection_delay;
  /// Failover re-queue -> successful re-execution on a survivor.
  Summary replacement_delay;
  /// Login arrival -> database resumed, for logins that had to wait.
  Summary login_wait;
  net::TransportStats transport;
};

/// Runs one cell.  InvalidArgument for num_dbs < 1, num_nodes < 1, or a
/// fault whose node is outside [1, num_nodes].
Result<PlaneTortureResult> RunPlaneTorture(const PlaneTortureOptions& options);

/// Counting pass: runs the workload crash-free with the crash-point
/// registry in counting mode and returns hits per control-plane point, so
/// a matrix can spread crash_nth over hits that actually occur.
Result<std::map<std::string, uint64_t>> ObservePlaneCrashPoints(
    const PlaneTortureOptions& options);

}  // namespace prorp::sim

#endif  // PRORP_SIM_PLANE_TORTURE_H_
