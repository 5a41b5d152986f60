// The golden behaviour digest of one fleet-simulator run: an FNV-1a 64-bit
// hash over the whole SimReport (KPIs, event counters, the buffered
// recorder, phase durations, diagnostics, robustness counters, every
// Summary as count + p50 + p99, and the log2 histograms) except two
// counts that describe how the run was executed rather than what it did:
// event_queue_bytes (the queue's storage) and control_plane_replayed (how
// many journal records the last recovery replayed, which moves with what
// the journal holds).  Digest tests pin each as its own exact value, so a
// change of queue storage or journal volume moves that number alone.

#ifndef PRORP_TESTS_SIM_SIM_REPORT_DIGEST_H_
#define PRORP_TESTS_SIM_SIM_REPORT_DIGEST_H_

#include <cstdint>

#include "golden_digest.h"
#include "sim/fleet_simulator.h"

namespace prorp::golden {

/// Everything a run reports except event_queue_bytes, the event queue's
/// own memory footprint, and control_plane_replayed, the journal volume
/// of the last recovery.
inline uint64_t SimBehaviourDigest(const sim::SimReport& r) {
  Fnv1a h;
  const telemetry::KpiReport& k = r.kpi;
  for (uint64_t v : {k.logins_total, k.logins_available, k.logins_reactive,
                     k.logical_pauses, k.physical_pauses, k.proactive_resumes,
                     k.forced_evictions, k.predictions}) {
    h.Add(v);
  }
  for (double v : {k.idle_logical_pct, k.idle_proactive_correct_pct,
                   k.idle_proactive_wrong_pct, k.active_pct, k.reclaimed_pct,
                   k.unavailable_pct}) {
    h.Add(v);
  }
  for (size_t i = 0; i < telemetry::kNumEventKinds; ++i) {
    h.Add(r.counts.Count(static_cast<telemetry::EventKind>(i)));
  }
  h.Add(static_cast<uint64_t>(r.recorder.size()));
  for (const telemetry::FleetEvent& e : r.recorder.events()) {
    h.Add(static_cast<uint64_t>(e.time));
    h.Add(static_cast<uint64_t>(e.db));
    h.Add(static_cast<uint64_t>(e.kind));
  }
  const telemetry::TimeBreakdown& u = r.usage;
  for (double v : {u.active, u.idle_logical, u.idle_proactive_correct,
                   u.idle_proactive_wrong, u.reclaimed, u.unavailable}) {
    h.Add(v);
  }
  AddDiagnostics(h, r.diagnostics);
  const telemetry::RobustnessReport& b = r.robustness;
  for (uint64_t v :
       {b.outage_windows, b.outage_seconds, b.resume_failures_outage,
        b.resume_failures_injected, b.degraded_enters, b.degraded_exits,
        b.history_errors, b.corruption_errors, b.corruption_detected,
        b.corruption_repaired, b.corruption_quarantined, b.scrub_passes,
        b.scrub_pages, b.scrub_errors, b.maintenance_touches,
        b.node_crash_windows, b.node_crash_seconds, b.node_deaths,
        b.node_rejoins, b.failover_requeues, b.failover_deduped,
        b.resume_failures_node_down, b.outage_waited_logins,
        b.outage_wait_seconds, b.failover_waited_logins,
        b.failover_wait_seconds}) {
    h.Add(v);
  }
  h.Add(r.pending_failed);
  h.Add(r.resumed_per_iteration);
  h.Add(r.login_delay);
  h.Add(r.resume_waits);
  h.Add(r.history_tuples);
  h.Add(r.history_bytes);
  h.Add(r.allocated_samples);
  h.Add(r.control_plane_recoveries);
  h.Add(static_cast<uint64_t>(r.measure_from));
  h.Add(static_cast<uint64_t>(r.measure_end));
  h.Add(r.events_processed);
  h.Add(r.login_delay_hist);
  h.Add(r.history_tuples_hist);
  h.Add(r.history_bytes_hist);
  return h.value();
}

}  // namespace prorp::golden

#endif  // PRORP_TESTS_SIM_SIM_REPORT_DIGEST_H_
