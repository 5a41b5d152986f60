#ifndef PRORP_TELEMETRY_FAULT_STATS_H_
#define PRORP_TELEMETRY_FAULT_STATS_H_

#include <cstdint>
#include <string>

namespace prorp::telemetry {

/// Robustness telemetry of one simulation run: the fault-injection and
/// graceful-degradation counters that ride alongside the KPI report.
/// The schedule fields describe the injected faults themselves (derived
/// from the run seed alone); the counters count what the event loop saw.
struct RobustnessReport {
  // --- The injected outage schedule ---
  uint64_t outage_windows = 0;   // node-down windows across all nodes
  uint64_t outage_seconds = 0;   // summed durations of those windows

  // --- Counters ---
  /// Proactive-resume workflow attempts that failed because the target
  /// database's node was inside an outage window.
  uint64_t resume_failures_outage = 0;
  /// Attempts failed by the probabilistic failure injector
  /// (SimOptions.resume_failure_probability).
  uint64_t resume_failures_injected = 0;
  /// Lifecycle-controller degraded-mode episodes (history-store errors
  /// forcing reactive behavior) summed over the fleet.
  uint64_t degraded_enters = 0;
  uint64_t degraded_exits = 0;
  uint64_t history_errors = 0;
  /// History-store errors that were typed Corruption (a subset of
  /// history_errors): bad pages caught by checksum verification.
  uint64_t corruption_errors = 0;

  // --- Counters: the detect → repair → quarantine pipeline ---
  /// Corrupt pages detected by fetch verification or a scrub pass.
  uint64_t corruption_detected = 0;
  /// Successful store rebuilds from snapshot + WAL.
  uint64_t corruption_repaired = 0;
  /// Stores quarantined because repair was impossible or did not stick.
  uint64_t corruption_quarantined = 0;
  /// Background-scrubber activity across SQL-backed history stores.
  uint64_t scrub_passes = 0;
  uint64_t scrub_pages = 0;
  uint64_t scrub_errors = 0;
  /// Maintenance resume workflows that touched a physically paused
  /// database (the lowest workflow class of the storm layer).
  uint64_t maintenance_touches = 0;

  // --- The injected node-crash schedule ---
  uint64_t node_crash_windows = 0;
  uint64_t node_crash_seconds = 0;

  // --- Counters: failure detection + fenced failover ---
  /// Death declarations by the lease-driven health tracker.
  uint64_t node_deaths = 0;
  /// Dead nodes re-admitted after the rejoin cooldown.
  uint64_t node_rejoins = 0;
  /// Databases re-placed by the failover engine (and the ones its
  /// enqueue deduped against already-live workflows).
  uint64_t failover_requeues = 0;
  uint64_t failover_deduped = 0;
  /// Work refused node-side because the target's lease had lapsed (the
  /// node fenced itself before the plane re-placed its databases).
  uint64_t resume_failures_node_down = 0;
  /// Redeliveries the node agents acked without re-executing (always 0
  /// over the simulator's inline transport, which never redelivers).
  uint64_t duplicates_suppressed = 0;

  // --- Counters: login-wait attribution (storm layer) ---
  /// Reactive logins whose wait started inside an outage window of the
  /// database's node, versus inside a node-crash window awaiting
  /// failover — the two flavors of "the node was gone" with different
  /// remedies (ride it out vs re-place elsewhere), split so a bench can
  /// attribute QoS loss to the right defense.
  uint64_t outage_waited_logins = 0;
  uint64_t outage_wait_seconds = 0;
  uint64_t failover_waited_logins = 0;
  uint64_t failover_wait_seconds = 0;

  /// One formatted row for bench output.
  std::string ToString() const;
};

}  // namespace prorp::telemetry

#endif  // PRORP_TELEMETRY_FAULT_STATS_H_
