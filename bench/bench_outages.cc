// Robustness experiment: fleet KPIs vs correlated node-outage rate.
// Not a paper figure — it quantifies the graceful-degradation claim of
// the control plane: as the resume path degrades (node outages fail
// proactive-resume workflows), the proactive policy's QoS decays toward
// the reactive baseline but never below it, because every failed
// pre-warm leaves the database on the reactive path rather than
// erroring out.  Also checks the mitigation-runner accounting invariant
// on every arm: each workflow that failed at least once lands in exactly
// one terminal bucket.

#include <cinttypes>
#include <cstdlib>

#include "bench/bench_util.h"

using namespace prorp;         // NOLINT: bench brevity
using namespace prorp::bench;  // NOLINT

int main(int argc, char** argv) {
  size_t num_dbs = argc > 1 ? static_cast<size_t>(std::atoi(argv[1])) : 120;
  int eval_days = argc > 2 ? std::atoi(argv[2]) : 5;
  PrintHeader("Robustness: KPIs vs node-outage rate",
              "proactive QoS degrades gracefully toward (never below) the "
              "reactive baseline as outages fail pre-warm workflows");
  FleetSetup setup = MakeFleet(workload::RegionEU1(), num_dbs, eval_days);

  const double rates[] = {0, 2, 8, 24, 96};  // outages/day/node
  std::printf("%-10s %-10s %8s %8s %8s %8s %8s %8s %8s  %s\n", "rate/day",
              "policy", "qos%", "stuck", "mitig", "incid", "shed",
              "br_open", "pend", "outage schedule");

  std::vector<Arm> arms;
  for (double rate : rates) {
    for (auto mode :
         {policy::PolicyMode::kProactive, policy::PolicyMode::kReactive}) {
      Arm arm;
      arm.label = std::string(policy::PolicyModeName(mode));
      arm.traces = &setup.traces;
      arm.options = MakeOptions(setup, mode);
      arm.options.num_nodes = 8;
      arm.options.outage_rate_per_day = rate;
      arm.options.outage_duration = Minutes(10);
      arms.push_back(std::move(arm));
    }
  }
  std::vector<Result<sim::SimReport>> reports = RunArms(arms);

  bool ok = true;
  double reactive_qos = 0;
  for (size_t i = 0; i < arms.size(); ++i) {
    if (!reports[i].ok()) {
      std::printf("FAILED: %s\n", reports[i].status().ToString().c_str());
      return 1;
    }
    const sim::SimReport& r = *reports[i];
    double rate = rates[i / 2];
    if (!AccountingReconciles(r)) {
      std::printf("ACCOUNTING MISMATCH at rate=%.0f %s\n", rate,
                  arms[i].label.c_str());
      ok = false;
    }
    if (arms[i].label == "reactive") reactive_qos = r.kpi.QosAvailablePct();
    std::printf("%-10.0f %-10s %8.1f %8" PRIu64 " %8" PRIu64 " %8" PRIu64
                " %8" PRIu64 " %8" PRIu64 " %8" PRIu64 "  %s\n",
                rate, arms[i].label.c_str(), r.kpi.QosAvailablePct(),
                r.diagnostics.stuck_workflows, r.diagnostics.mitigated,
                r.diagnostics.incidents, r.diagnostics.shed_resumes,
                r.diagnostics.breaker_opens, r.pending_failed,
                r.robustness.ToString().c_str());
    // Graceful degradation: proactive never falls below the reactive
    // baseline of the same outage rate (checked pairwise; proactive is
    // printed first, reactive second).
    if (i % 2 == 1) {
      double proactive_qos = reports[i - 1]->kpi.QosAvailablePct();
      if (proactive_qos + 1e-9 < reactive_qos) {
        std::printf("DEGRADATION VIOLATION at rate=%.0f: proactive %.2f%% "
                    "< reactive %.2f%%\n",
                    rate, proactive_qos, reactive_qos);
        ok = false;
      }
    }
  }
  std::printf(ok ? "OUTAGE SWEEP PASSED\n" : "OUTAGE SWEEP FAILED\n");
  return ok ? 0 : 1;
}
