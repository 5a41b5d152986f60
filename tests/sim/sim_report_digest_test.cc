// Golden behaviour digest of the fleet simulator: an FNV-1a 64-bit hash
// over the whole SimReport (KPIs, event counters, the buffered recorder,
// phase durations, diagnostics, robustness counters, every Summary as
// count + p50 + p99, and the log2 histograms) for a fixed grid of small
// fleets: the proactive policy plain, under the storm layer with a fleet
// outage and maintenance load, under random outages with injected resume
// failures, journaled with a control-plane crash, and over the transport
// with failure detection and a node crash; the reactive policy plain and
// under the storm layer.  A refactor must leave every constant unchanged;
// changing one is a deliberate, reviewed edit.

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/fleet_simulator.h"
#include "workload/region.h"

namespace prorp::sim {
namespace {

using policy::PolicyMode;

constexpr EpochSeconds kT0 = Days(1004);  // a Monday
constexpr EpochSeconds kMeasureFrom = kT0 + Days(28);
constexpr EpochSeconds kEnd = kT0 + Days(32);

class Fnv1a {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void Add(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    Add(bits);
  }
  void Add(const Summary& s) {
    Add(static_cast<uint64_t>(s.count()));
    Add(s.Percentile(0.50));
    Add(s.Percentile(0.99));
  }
  void Add(const telemetry::Histogram& hist) {
    for (uint64_t b : hist.buckets()) Add(b);
    Add(hist.count());
    Add(static_cast<uint64_t>(hist.max()));
    Add(hist.sum());
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

uint64_t Digest(const SimReport& r) {
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
  const controlplane::DiagnosticsReport& d = r.diagnostics;
  for (uint64_t v :
       {d.observed_iterations, static_cast<uint64_t>(d.max_queue_depth),
        d.stuck_workflows, d.mitigated, d.skipped_state_changed,
        d.failed_then_skipped, d.failed_then_shed, d.incidents,
        d.backoff_retries_scheduled, d.backoff_delay_seconds_total,
        d.shed_resumes, d.breaker_opens, d.breaker_state_changes,
        d.storms_detected, d.slow_start_ticks, d.quota_deferrals,
        d.catch_up_enqueued, d.deleted_while_queued,
        static_cast<uint64_t>(d.max_brownout_level), d.unacked_dispatches,
        d.dispatch_timeouts, d.late_acks, d.stale_epoch_acks,
        d.node_failovers, d.failover_requeues}) {
    h.Add(v);
  }
  for (const controlplane::ClassDiagnostics& c : d.per_class) {
    for (uint64_t v :
         {c.enqueued, c.resumed, c.shed_admission, c.shed_evicted, c.stuck,
          c.mitigated, c.incidents, c.skipped_state_changed,
          c.failed_then_skipped, c.failed_then_shed, c.deadline_breaches,
          c.hedged, c.hedge_wins}) {
      h.Add(v);
    }
  }
  h.Add(d.queue_wait);
  h.Add(d.in_flight_duration);
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
  h.Add(r.control_plane_replayed);
  h.Add(static_cast<uint64_t>(r.measure_from));
  h.Add(static_cast<uint64_t>(r.measure_end));
  h.Add(r.events_processed);
  h.Add(r.login_delay_hist);
  h.Add(r.history_tuples_hist);
  h.Add(r.history_bytes_hist);
  h.Add(r.event_queue_bytes);
  return h.value();
}

SimOptions BaseOptions(PolicyMode mode) {
  SimOptions options;
  options.mode = mode;
  options.measure_from = kMeasureFrom;
  options.end = kEnd;
  options.seed = 7;
  return options;
}

void Storm(SimOptions& options) {
  options.num_nodes = 4;
  options.resume_concurrency_per_node = 2;
  options.node_admission_rate = 0.5;
  options.fleet_outage_at = kMeasureFrom + Days(1);
  options.fleet_outage_duration = Minutes(30);
  ControlPlaneConfig& cp = options.config.control_plane;
  cp.queue_capacity = 16;
  cp.admission_control_enabled = true;
  cp.deadline_hedging_enabled = true;
  cp.catch_up_enabled = true;
  cp.breaker_window = 8;
  cp.storm_due_burst_threshold = 3;
  cp.storm_login_spike_threshold = 4;
  cp.storm_recovery_backlog = 2;
}

struct Cell {
  std::string name;
  SimOptions options;
  uint64_t digest;
};

std::vector<Cell> Cells() {
  std::vector<Cell> cells;
  cells.push_back({"proactive_plain", BaseOptions(PolicyMode::kProactive),
                   0xcce9d88898599d97ULL});

  SimOptions storm = BaseOptions(PolicyMode::kProactive);
  Storm(storm);
  storm.maintenance_interval = Hours(6);
  storm.maintenance_batch = 4;
  cells.push_back({"proactive_storm", storm, 0x586282978fc4c007ULL});

  SimOptions outages = BaseOptions(PolicyMode::kProactive);
  outages.num_nodes = 4;
  outages.outage_rate_per_day = 1.0;
  outages.outage_duration = Minutes(20);
  outages.resume_failure_probability = 0.05;
  cells.push_back({"proactive_outages", outages, 0x951942a9c0e080e4ULL});

  SimOptions journal = BaseOptions(PolicyMode::kProactive);
  journal.control_plane_crash_at = kMeasureFrom + Days(2) + Hours(3);
  cells.push_back(
      {"proactive_journal_crash", journal, 0x7cbf049489bbe175ULL});

  SimOptions transport = BaseOptions(PolicyMode::kProactive);
  transport.num_nodes = 4;
  transport.use_transport = true;
  transport.failure_detection_enabled = true;
  transport.node_crash_node = 1;
  transport.node_crash_at = kMeasureFrom + Days(1) + Hours(18);
  transport.node_crash_duration = Days(1);
  cells.push_back(
      {"proactive_transport_failover", transport, 0xa345dbf85d7ea42eULL});

  cells.push_back({"reactive_plain", BaseOptions(PolicyMode::kReactive),
                   0xceb98fc6edb83c9ULL});

  SimOptions reactive_storm = BaseOptions(PolicyMode::kReactive);
  Storm(reactive_storm);
  cells.push_back({"reactive_storm", reactive_storm, 0xf985ec36f661c208ULL});
  return cells;
}

TEST(SimReportDigestTest, GridIsBitIdentical) {
  const auto traces =
      workload::GenerateFleet(workload::RegionEU1(), 60, kT0, kEnd, 13);
  for (Cell& cell : Cells()) {
    std::string dir;
    if (cell.name == "proactive_journal_crash") {
      dir = testing::TempDir() + "/sim_digest_journal";
      std::filesystem::remove_all(dir);
      std::filesystem::create_directories(dir);
      cell.options.control_plane_journal_dir = dir;
    }
    auto r = RunFleetSimulation(traces, cell.options);
    ASSERT_TRUE(r.ok()) << cell.name << ": " << r.status().ToString();
    const uint64_t digest = Digest(*r);
    EXPECT_EQ(digest, cell.digest)
        << cell.name << ": digest 0x" << std::hex << digest;
    if (!dir.empty()) std::filesystem::remove_all(dir);
  }
}

}  // namespace
}  // namespace prorp::sim
