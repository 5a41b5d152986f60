// Robustness experiment: node-loss QoS with lease-driven failure
// detection + fenced failover vs the passive-outage baseline.
//
// Two sections:
//  1. Failover-torture cells (crash / zombie partition / gray-slow node),
//     each run with detection on and off: detection latency (fault onset
//     -> death declaration), re-placement latency (failover re-queue ->
//     successful re-execution on a survivor), and the login waits each
//     arm inflicted — plus the exactly-once/fencing invariants every
//     cell must hold (zero lost logins, zero double-applies, zero
//     double-lives, zero fence violations, reconciled accounting).
//  2. A fleet-simulator node-crash evening: the crashed node's warm idle
//     databases are force-evicted; with detection the failover engine
//     re-places them on survivors before their morning logins arrive,
//     with attribution splitting failover waits from outage waits.
//
// Exit code asserts the QoS claim (detection beats passive on node
// loss), the detection-latency bound, and every invariant; results
// persist as BENCH_failover.json (--out=PATH / --no-out).

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "sim/plane_torture.h"

using namespace prorp;         // NOLINT: bench brevity
using namespace prorp::bench;  // NOLINT

namespace prorp::bench {
namespace {

std::string FreshDir(const std::string& name) {
  std::string dir = "/tmp/prorp_bench_failover/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

struct Cell {
  const char* name;
  sim::NodeFaultSpec fault;
  int steps = 200;
};

bool InvariantsHold(const sim::PlaneTortureResult& r, const char* tag,
                    bool detect) {
  bool ok = true;
  auto fail = [&](const char* what, uint64_t v) {
    std::printf("INVARIANT FAILURE %s[%s]: %s=%" PRIu64 "\n", tag,
                detect ? "detect" : "passive", what, v);
    ok = false;
  };
  if (r.lost_reactive != 0) fail("lost_reactive", r.lost_reactive);
  if (r.double_applies != 0) fail("double_applies", r.double_applies);
  if (r.stale_epoch_applied != 0)
    fail("stale_epoch_applied", r.stale_epoch_applied);
  if (r.double_live != 0) fail("double_live", r.double_live);
  if (r.fence_violations != 0)
    fail("fence_violations", r.fence_violations);
  if (!r.accounting_ok) fail("accounting_ok", 0);
  if (!r.drained) fail("drained", 0);
  return ok;
}

void PrintCellRow(const char* tag, bool detect,
                  const sim::PlaneTortureResult& r) {
  std::printf("%-8s %-8s %6" PRIu64 " %6" PRIu64 " %6" PRIu64 " %6" PRIu64
              "  det p50/p99 %5.0f/%5.0fs  repl %5.0f/%5.0fs  "
              "wait n=%-4zu p99 %6.0fs\n",
              tag, detect ? "detect" : "passive", r.deaths_declared,
              r.failover_requeues, r.diverted_dispatches,
              r.lease_expired_rejected, r.detection_delay.Percentile(0.50),
              r.detection_delay.Percentile(0.99),
              r.replacement_delay.Percentile(0.50),
              r.replacement_delay.Percentile(0.99), r.login_wait.count(),
              r.login_wait.Percentile(0.99));
}

int Run(bool smoke, std::string out_path) {
  PrintHeader("Robustness: node loss with lease-driven failover",
              "detection + fenced re-placement beats the passive-outage "
              "baseline on login QoS during node loss, with zero "
              "double-lives and zero lost logins");

  sim::PlaneTortureOptions base;
  base.num_dbs = smoke ? 32 : 48;

  sim::NodeFaultSpec crash;
  crash.kind = sim::NodeFaultSpec::Kind::kCrash;
  crash.node = 2;
  crash.at_step = 40;
  crash.duration_steps = 60;
  sim::NodeFaultSpec zombie;
  zombie.kind = sim::NodeFaultSpec::Kind::kZombie;
  zombie.node = 1;
  zombie.at_step = 50;
  zombie.duration_steps = 30;
  sim::NodeFaultSpec slow;
  slow.kind = sim::NodeFaultSpec::Kind::kSlow;
  slow.node = 3;
  slow.at_step = 40;
  slow.duration_steps = 80;
  slow.slow_delay = 80;

  const Cell cells[] = {
      {"crash", crash, 200},
      {"zombie", zombie, 200},
      {"slow", slow, 240},
  };

  bool ok = true;
  std::printf("%-8s %-8s %6s %6s %6s %6s\n", "fault", "arm", "deaths",
              "requeu", "divert", "fenced");
  sim::PlaneTortureResult crash_detect, crash_passive;
  std::vector<MicroResult> rows;
  for (const Cell& cell : cells) {
    for (bool detect : {true, false}) {
      sim::PlaneTortureOptions opt = base;
      opt.dir = FreshDir(std::string(cell.name) +
                         (detect ? "_detect" : "_passive"));
      opt.seed = 11;
      opt.steps = cell.steps;
      opt.detection_enabled = detect;
      opt.faults = {cell.fault};
      auto t0 = std::chrono::steady_clock::now();
      auto r = sim::RunPlaneTorture(opt);
      double secs = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
      if (!r.ok()) {
        std::printf("FAILED %s: %s\n", cell.name,
                    r.status().ToString().c_str());
        return 1;
      }
      PrintCellRow(cell.name, detect, *r);
      ok &= InvariantsHold(*r, cell.name, detect);
      if (detect) {
        if (r->deaths_declared == 0) {
          std::printf("NO DEATH DECLARED in %s/detect\n", cell.name);
          ok = false;
        }
        // The detection-latency bound: suspicion gap + fence drain +
        // grace, with a couple of lease periods of tick slack.
        double bound =
            static_cast<double>(opt.lease_ttl + opt.dead_grace + 120);
        if (r->detection_delay.count() > 0 &&
            r->detection_delay.Percentile(0.99) > bound) {
          std::printf("DETECTION LATENCY BOUND EXCEEDED in %s: "
                      "p99 %.0fs > %.0fs\n",
                      cell.name, r->detection_delay.Percentile(0.99),
                      bound);
          ok = false;
        }
      }
      if (std::strcmp(cell.name, "crash") == 0) {
        if (detect) {
          crash_detect = *r;
        } else {
          crash_passive = *r;
        }
      }
      MicroResult row;
      row.name = std::string(cell.name) + "_" +
                 (detect ? "detect" : "passive");
      row.ops = static_cast<double>(r->total_resumed);
      row.seconds = secs;
      row.p50_us = r->login_wait.Percentile(0.50) * 1e6;
      row.p95_us = r->login_wait.Percentile(0.95) * 1e6;
      row.p99_us = r->login_wait.Percentile(0.99) * 1e6;
      rows.push_back(row);
    }
  }
  if (crash_detect.failover_requeues == 0) {
    std::printf("CRASH CELL RE-PLACED NOTHING\n");
    ok = false;
  }
  // The QoS claim on the torture workload: with detection the waiting
  // logins ride diversion + re-placement instead of the dead node's
  // retry attrition.
  if (crash_detect.login_wait.count() > 0 &&
      crash_passive.login_wait.count() > 0 &&
      crash_detect.login_wait.Percentile(0.99) >
          crash_passive.login_wait.Percentile(0.99)) {
    std::printf("QOS REGRESSION: crash login-wait p99 %.0fs (detect) > "
                "%.0fs (passive)\n",
                crash_detect.login_wait.Percentile(0.99),
                crash_passive.login_wait.Percentile(0.99));
    ok = false;
  }

  // --- Section 2: fleet-simulator evening node crash ---
  size_t num_dbs = smoke ? 60 : 120;
  FleetSetup setup = MakeFleet(workload::RegionEU1(), num_dbs, 5);
  std::vector<Arm> arms;
  for (bool detect : {false, true}) {
    Arm arm;
    arm.label = detect ? "detect" : "passive";
    arm.traces = &setup.traces;
    arm.options = MakeOptions(setup, policy::PolicyMode::kProactive);
    // Isolate the node crash: no background random evictions, and the
    // storm layer on so every reactive wait is measured and attributed.
    arm.options.eviction_per_hour = 0;
    arm.options.resume_concurrency_per_node = 2;
    arm.options.num_nodes = 4;
    arm.options.use_transport = true;
    arm.options.node_crash_node = 1;
    arm.options.node_crash_at = kMeasureFrom + Days(1) + Hours(18);
    arm.options.node_crash_duration = Days(1);
    arm.options.failure_detection_enabled = detect;
    arms.push_back(std::move(arm));
  }
  std::vector<Result<sim::SimReport>> reports = RunArms(arms);
  for (size_t i = 0; i < arms.size(); ++i) {
    if (!reports[i].ok()) {
      std::printf("FLEET ARM FAILED: %s\n",
                  reports[i].status().ToString().c_str());
      return 1;
    }
    const sim::SimReport& r = *reports[i];
    std::printf("fleet %-8s avail=%" PRIu64 " reactive=%" PRIu64
                " evicted=%" PRIu64 " requeued=%" PRIu64
                " failover_waits=%" PRIu64 " (%" PRIu64 "s) "
                "outage_waits=%" PRIu64 "\n",
                arms[i].label.c_str(), r.kpi.logins_available,
                r.kpi.logins_reactive, r.kpi.forced_evictions,
                r.robustness.failover_requeues,
                r.robustness.failover_waited_logins,
                r.robustness.failover_wait_seconds,
                r.robustness.outage_waited_logins);
  }
  const sim::SimReport& fp = *reports[0];  // passive
  const sim::SimReport& fd = *reports[1];  // detect
  if (fp.kpi.logins_total != fd.kpi.logins_total) {
    std::printf("LOGIN LOSS: passive %" PRIu64 " vs detect %" PRIu64 "\n",
                fp.kpi.logins_total, fd.kpi.logins_total);
    ok = false;
  }
  if (fd.robustness.failover_requeues == 0) {
    std::printf("FLEET DETECT ARM RE-PLACED NOTHING\n");
    ok = false;
  }
  if (fd.kpi.logins_available <= fp.kpi.logins_available) {
    std::printf("QOS REGRESSION: fleet avail %" PRIu64 " (detect) <= %" PRIu64
                " (passive)\n",
                fd.kpi.logins_available, fp.kpi.logins_available);
    ok = false;
  }
  if (fd.robustness.failover_wait_seconds >
      fp.robustness.failover_wait_seconds) {
    std::printf("ATTRIBUTION REGRESSION: failover wait %" PRIu64
                "s (detect) > %" PRIu64 "s (passive)\n",
                fd.robustness.failover_wait_seconds,
                fp.robustness.failover_wait_seconds);
    ok = false;
  }

  if (!out_path.empty()) {
    std::vector<std::pair<std::string, double>> derived = {
        {"detection_delay_p50_s", crash_detect.detection_delay.Percentile(0.50)},
        {"detection_delay_p99_s", crash_detect.detection_delay.Percentile(0.99)},
        {"replacement_delay_p50_s",
         crash_detect.replacement_delay.Percentile(0.50)},
        {"replacement_delay_p99_s",
         crash_detect.replacement_delay.Percentile(0.99)},
        {"crash_login_wait_p99_s_detect",
         crash_detect.login_wait.Percentile(0.99)},
        {"crash_login_wait_p99_s_passive",
         crash_passive.login_wait.Percentile(0.99)},
        {"fleet_logins_available_detect",
         static_cast<double>(fd.kpi.logins_available)},
        {"fleet_logins_available_passive",
         static_cast<double>(fp.kpi.logins_available)},
        {"fleet_failover_wait_s_detect",
         static_cast<double>(fd.robustness.failover_wait_seconds)},
        {"fleet_failover_wait_s_passive",
         static_cast<double>(fp.robustness.failover_wait_seconds)},
        {"fleet_failover_requeues",
         static_cast<double>(fd.robustness.failover_requeues)},
    };
    if (!WriteMicroJson(out_path, "failover", smoke ? "smoke" : "full",
                        rows, derived)) {
      ok = false;
    }
  }
  std::printf(ok ? "FAILOVER BENCH PASSED\n" : "FAILOVER BENCH FAILED\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace prorp::bench

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_failover.json";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg == "--no-out") {
      out_path.clear();
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--out=PATH | --no-out]\n", argv[0]);
      return 2;
    }
  }
  return prorp::bench::Run(smoke, std::move(out_path));
}
