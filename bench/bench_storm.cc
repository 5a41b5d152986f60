// Resume-storm resilience experiment (DESIGN.md section 8): login-delay
// QoS vs storm intensity.  A fleet-wide correlated outage knocks every
// node down; on heal, the backlog of missed pre-warms, held retries and
// queued customer logins lands on finite node capacity at once.  The
// naive proactive arm dumps its catch-up backlog immediately and inflates
// the reactive login tail; the admission-controlled arm detects the storm,
// sheds the lower classes, and slow-starts the backlog, so customer
// logins keep the capacity headroom.
//
// Self-checks (the harness exits nonzero when any fails):
//   1. KPI identity: a fault-free run with the whole storm layer enabled
//      (admission control, hedging, catch-up, brownouts, finite queue) is
//      KPI-identical to the legacy scalar-latency run.
//   2. Reactive logins are never shed, at any brownout level, in any arm.
//   3. With a storm, admission control's reactive login-delay p99 is no
//      worse than the naive proactive arm's.
//   4. The admission-controlled arm stays at or above the reactive floor.
//   5. The mitigation accounting invariant reconciles on every arm.

#include <cinttypes>
#include <cstdlib>

#include "bench/bench_util.h"

using namespace prorp;         // NOLINT: bench brevity
using namespace prorp::bench;  // NOLINT

namespace {

using controlplane::ResumeClass;

/// Storm-layer knobs shared by every storm arm: finite per-node resume
/// capacity plus a token-bucket limiter, sized so a fault-free run has
/// zero congestion (self-check 1 depends on that headroom).
void EnableStormLayer(sim::SimOptions& options, DurationSeconds intensity,
                      EpochSeconds outage_at) {
  options.num_nodes = 8;
  options.resume_concurrency_per_node = 6;
  options.node_admission_rate = 0.10;  // per node per second
  options.node_admission_burst = 6;
  options.resume_queue_jitter_max = 7;
  options.fleet_outage_at = outage_at;
  options.fleet_outage_duration = intensity;
  if (intensity > 0) {
    // A storm is rarely one clean window: per-node random outages ride
    // along, so some nodes flap while the rest of the fleet is up.  This
    // is where the deadline watchdog earns its keep — a login blocked on
    // a down node is hedged to a healthy one instead of waiting the
    // outage out.
    options.outage_rate_per_day = 4;
    options.outage_duration = Minutes(10);
  }
  // Background maintenance load gives the brownout ladder something to
  // shed before any customer-visible class.
  options.maintenance_interval = Minutes(30);
  options.maintenance_batch = 8;
  // Bench-scale detector thresholds (the production-scale defaults would
  // never trip with a few hundred databases); a fault-free run must stay
  // under them — self-check 1 would fail otherwise.
  auto& cp = options.config.control_plane;
  cp.storm_due_burst_threshold = 16;
  cp.storm_login_spike_threshold = 8;
  cp.storm_recovery_backlog = 8;
  // Long enough for the recovery sweep to cover a whole storm window.
  cp.catch_up_lookback = Hours(3);
}

void EnableAdmissionControl(sim::SimOptions& options) {
  auto& cp = options.config.control_plane;
  cp.admission_control_enabled = true;
  cp.catch_up_enabled = true;
  cp.deadline_hedging_enabled = true;
  cp.queue_capacity = 16;
}

void PrintRow(const char* label, DurationSeconds intensity,
              const sim::SimReport& r) {
  const auto& d = r.diagnostics;
  std::printf("%-8.0f %-9s %6.2f %7.0f %7.0f %7.0f %7.0f %7" PRIu64
              " %4d %6" PRIu64 " %6" PRIu64 " %6" PRIu64 " %6" PRIu64 "\n",
              static_cast<double>(intensity) / 60.0, label,
              r.kpi.QosAvailablePct(), r.login_delay.Percentile(0.50),
              r.login_delay.Percentile(0.95), r.login_delay.Percentile(0.99),
              r.resume_waits.empty() ? 0.0 : r.resume_waits.Max(),
              d.storms_detected, d.max_brownout_level,
              d.cls(ResumeClass::kMaintenance).shed() +
                  d.cls(ResumeClass::kSpeculativeProactive).shed() +
                  d.cls(ResumeClass::kImminentProactive).shed(),
              d.cls(ResumeClass::kReactiveLogin).hedged,
              d.cls(ResumeClass::kReactiveLogin).hedge_wins, d.incidents);
}

}  // namespace

int main(int argc, char** argv) {
  size_t num_dbs = argc > 1 ? static_cast<size_t>(std::atoi(argv[1])) : 120;
  int eval_days = argc > 2 ? std::atoi(argv[2]) : 4;
  PrintHeader("Resume-storm resilience: login-delay QoS vs storm intensity",
              "admission control + slow-start keeps the reactive login tail "
              "at or below the naive proactive arm and above the reactive "
              "floor");
  FleetSetup setup = MakeFleet(workload::RegionEU1(), num_dbs, eval_days);
  EpochSeconds outage_at = kMeasureFrom + Days(1);

  const DurationSeconds intensities[] = {0, Minutes(30), Minutes(120)};

  // Arm 0: the legacy scalar-latency proactive run (storm layer off) —
  // the KPI-identity reference of self-check 1.
  std::vector<Arm> arms;
  {
    Arm arm;
    arm.label = "legacy";
    arm.traces = &setup.traces;
    arm.options = MakeOptions(setup, policy::PolicyMode::kProactive);
    arms.push_back(std::move(arm));
  }
  // Then, per intensity: naive proactive, admission-controlled proactive,
  // reactive floor — all on the same storm layer.
  for (DurationSeconds intensity : intensities) {
    Arm naive;
    naive.label = "naive";
    naive.traces = &setup.traces;
    naive.options = MakeOptions(setup, policy::PolicyMode::kProactive);
    EnableStormLayer(naive.options, intensity, outage_at);
    naive.options.config.control_plane.catch_up_enabled = true;
    arms.push_back(std::move(naive));

    Arm admctl;
    admctl.label = "admctl";
    admctl.traces = &setup.traces;
    admctl.options = MakeOptions(setup, policy::PolicyMode::kProactive);
    EnableStormLayer(admctl.options, intensity, outage_at);
    EnableAdmissionControl(admctl.options);
    arms.push_back(std::move(admctl));

    Arm reactive;
    reactive.label = "reactive";
    reactive.traces = &setup.traces;
    reactive.options = MakeOptions(setup, policy::PolicyMode::kReactive);
    EnableStormLayer(reactive.options, intensity, outage_at);
    reactive.options.config.control_plane.deadline_hedging_enabled = true;
    arms.push_back(std::move(reactive));
  }

  std::vector<Result<sim::SimReport>> reports = RunArms(arms);
  for (const auto& r : reports) {
    if (!r.ok()) {
      std::printf("FAILED: %s\n", r.status().ToString().c_str());
      return 1;
    }
  }

  std::printf("%-8s %-9s %6s %7s %7s %7s %7s %7s %4s %6s %6s %6s %6s\n",
              "min", "arm", "qos%", "lg_p50", "lg_p95", "lg_p99", "wait_mx",
              "storms", "bl", "shed", "hedge", "hwin", "incid");
  bool ok = true;
  const sim::SimReport& legacy = *reports[0];
  for (size_t i = 1; i < arms.size(); ++i) {
    DurationSeconds intensity = intensities[(i - 1) / 3];
    PrintRow(arms[i].label.c_str(), intensity, *reports[i]);
    const auto& d = reports[i]->diagnostics;
    if (d.cls(ResumeClass::kReactiveLogin).shed() != 0) {
      std::printf("REACTIVE SHED VIOLATION in %s at %.0f min\n",
                  arms[i].label.c_str(),
                  static_cast<double>(intensity) / 60.0);
      ok = false;
    }
    if (!AccountingReconciles(*reports[i])) {
      std::printf("ACCOUNTING MISMATCH in %s at %.0f min\n",
                  arms[i].label.c_str(),
                  static_cast<double>(intensity) / 60.0);
      ok = false;
    }
  }
  std::printf("%-8s %-9s %6.2f (scalar-latency reference, no storm layer)\n",
              "-", "legacy", legacy.kpi.QosAvailablePct());

  // Self-check 1: fault-free storm-layer run is KPI-identical to legacy.
  const sim::SimReport& admctl0 = *reports[2];
  if (admctl0.kpi.ToString() != legacy.kpi.ToString()) {
    std::printf("KPI IDENTITY VIOLATION (fault-free storm layer):\n"
                "  legacy: %s\n  storm0: %s\n",
                legacy.kpi.ToString().c_str(), admctl0.kpi.ToString().c_str());
    ok = false;
  }
  if (admctl0.diagnostics.storms_detected != 0) {
    std::printf("STORM DETECTOR TRIPPED FAULT-FREE (%" PRIu64 " storms)\n",
                admctl0.diagnostics.storms_detected);
    ok = false;
  }
  if (!admctl0.resume_waits.empty() && admctl0.resume_waits.Max() > 0) {
    std::printf("FAULT-FREE CONTENTION: max capacity wait %.0fs != 0\n",
                admctl0.resume_waits.Max());
    ok = false;
  }

  // Self-checks 3 and 4 at each nonzero intensity.
  for (size_t block = 1; block < 3; ++block) {
    DurationSeconds intensity = intensities[block];
    const sim::SimReport& naive = *reports[1 + 3 * block];
    const sim::SimReport& admctl = *reports[2 + 3 * block];
    const sim::SimReport& reactive = *reports[3 + 3 * block];
    double naive_p99 = naive.login_delay.Percentile(0.99);
    double admctl_p99 = admctl.login_delay.Percentile(0.99);
    // Tolerance: the deterministic de-synchronization jitter on contended
    // grants (admission control must never make the tail worse than the
    // naive arm by more than one jitter bound).
    if (admctl_p99 > naive_p99 + 7) {
      std::printf("TAIL VIOLATION at %.0f min: admctl p99 %.0fs > naive "
                  "p99 %.0fs\n",
                  static_cast<double>(intensity) / 60.0, admctl_p99,
                  naive_p99);
      ok = false;
    }
    if (admctl.kpi.QosAvailablePct() + 1e-9 <
        reactive.kpi.QosAvailablePct()) {
      std::printf("FLOOR VIOLATION at %.0f min: admctl QoS %.2f%% < "
                  "reactive %.2f%%\n",
                  static_cast<double>(intensity) / 60.0,
                  admctl.kpi.QosAvailablePct(),
                  reactive.kpi.QosAvailablePct());
      ok = false;
    }
  }

  std::printf(ok ? "STORM SWEEP PASSED\n" : "STORM SWEEP FAILED\n");
  return ok ? 0 : 1;
}
