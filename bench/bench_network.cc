// Transport-path microbench: dispatch throughput and ack-resolution
// latency of the control-plane <-> node message stack (DESIGN.md
// section 11), fault-free vs a 1% message-drop wire.
//
// Two arms, each driving one reactive resume workflow per database
// through ManagementService -> TransportDispatcher -> transport ->
// NodeAgent and waiting (on the virtual clock) until the ack resolves it:
//
//   fault-free  InProcessTransport: every ack arrives inline, so the ack
//               delay must be exactly zero and no retransmission or
//               timeout machinery may move — the bit-identity regime.
//   drop_1pct   FaultInjectingTransport dropping 1% of requests and acks:
//               every workflow must still resolve (retransmissions cover
//               the losses), and the virtual ack-delay p99 must stay
//               within two retransmit rounds.
//
// Self-checks gate the exit code, so CI can run this as a smoke step.
// Results persist as BENCH_network.json (--out=PATH / --no-out).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "controlplane/management_service.h"
#include "controlplane/metadata_store.h"
#include "faults/fault_plan.h"
#include "net/dispatcher.h"
#include "net/fault_injecting_transport.h"
#include "net/node_agent.h"
#include "net/transport.h"

namespace prorp::bench {
namespace {

using controlplane::ManagementService;
using controlplane::MetadataStore;
using controlplane::ResumeAttempt;
using telemetry::DbId;

constexpr EpochSeconds kStart = 1'000'000;

double Pct(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t i = static_cast<size_t>(q * static_cast<double>(v.size() - 1));
  return v[i];
}

struct ArmOutcome {
  MicroResult micro;
  double ack_p50_s = 0;  // virtual seconds, dispatch -> resolution
  double ack_p99_s = 0;
  double ack_max_s = 0;
  uint64_t executions = 0;
  uint64_t resumed = 0;
  net::TransportDispatcher::Stats dispatcher;
  bool accounting_ok = false;
  bool drained = true;
};

/// Runs one arm: `n` reactive workflows, each driven to resolution on the
/// virtual clock before the next dispatches (so the per-workflow ack
/// delay is exact).  Wall-clock time around the whole loop yields the
/// real dispatch throughput.
ArmOutcome RunArm(const std::string& name, net::Transport* transport,
                  int n) {
  ArmOutcome out;
  net::TransportDispatcher::Options dopt;
  dopt.retransmit_after = 30;
  net::TransportDispatcher dispatcher(transport, dopt);

  std::vector<bool> resumed(static_cast<size_t>(n), false);
  net::NodeAgent agent(1, transport,
                       [&out, &resumed](const ResumeAttempt& a,
                                        EpochSeconds) {
                         ++out.executions;
                         if (resumed[a.db]) {
                           return Status::FailedPrecondition(
                               "already resumed");
                         }
                         resumed[a.db] = true;
                         return Status::OK();
                       });

  auto meta = MetadataStore::Open();
  if (!meta.ok()) return out;
  ControlPlaneConfig config;
  config.retry_backoff_cap = 240;
  auto service = std::make_unique<ManagementService>(
      meta->get(), config,
      [&dispatcher](const ResumeAttempt& a, EpochSeconds now) {
        return dispatcher.DispatchResume(a, now);
      });
  service->set_epoch(1);
  dispatcher.set_service(service.get());
  agent.FenceEpoch(1);

  std::vector<double> op_us;
  std::vector<double> ack_s;
  op_us.reserve(static_cast<size_t>(n));
  ack_s.reserve(static_cast<size_t>(n));

  EpochSeconds now = kStart;
  auto wall_start = std::chrono::steady_clock::now();
  for (int i = 0; i < n; ++i) {
    auto op_start = std::chrono::steady_clock::now();
    const DbId db = static_cast<DbId>(i);
    if (!meta->get()
             ->UpsertState(db, policy::DbState::kPhysicallyPaused, 0)
             .ok()) {
      out.drained = false;
      break;
    }
    const EpochSeconds enqueued = now;
    if (!service->EnqueueReactive(db, now).ok()) {
      out.drained = false;
      break;
    }
    service->Pump(now);
    // Drive the virtual clock until the workflow resolves (the fault-free
    // arm never enters this loop: its ack arrived inside Pump).
    int guard = 0;
    while (service->unacked() != 0 || service->pending_workflows() != 0) {
      now += 10;
      dispatcher.Tick(now);
      service->Pump(now);
      if (++guard > 10'000) {
        out.drained = false;
        break;
      }
    }
    ack_s.push_back(static_cast<double>(now - enqueued));
    op_us.push_back(std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() - op_start)
                        .count());
    now += 1;  // workflows dispatch at distinct virtual instants
  }
  double wall = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - wall_start)
                    .count();

  out.micro.name = name;
  out.micro.ops = static_cast<double>(n);
  out.micro.seconds = wall;
  out.micro.p50_us = Pct(op_us, 0.50);
  out.micro.p95_us = Pct(op_us, 0.95);
  out.micro.p99_us = Pct(op_us, 0.99);
  out.ack_p50_s = Pct(ack_s, 0.50);
  out.ack_p99_s = Pct(ack_s, 0.99);
  out.ack_max_s = ack_s.empty() ? 0 : *std::max_element(ack_s.begin(),
                                                        ack_s.end());
  for (bool r : resumed) out.resumed += r ? 1 : 0;
  out.dispatcher = dispatcher.stats();
  out.accounting_ok = service->AccountingReconciles();
  out.drained = out.drained && service->unacked() == 0 &&
                service->pending_workflows() == 0 && dispatcher.Idle();
  return out;
}

int Run(bool smoke, const std::string& out_path) {
  const int n = smoke ? 2000 : 20000;
  std::printf("# bench_network: %d reactive dispatches per arm "
              "(plane -> dispatcher -> wire -> node agent)\n",
              n);

  net::InProcessTransport clean;
  ArmOutcome fault_free = RunArm("dispatch_fault_free", &clean, n);
  PrintMicroRow(fault_free.micro);

  faults::FaultPlan plan(2024);
  plan.FailWithProbability(faults::FaultOp::kMsgRequest, 0.01,
                           faults::FaultKind::kMsgDrop);
  plan.FailWithProbability(faults::FaultOp::kMsgAck, 0.01,
                           faults::FaultKind::kMsgDrop);
  net::FaultInjectingTransport lossy(&plan);
  ArmOutcome drop = RunArm("dispatch_drop_1pct", &lossy, n);
  PrintMicroRow(drop.micro);

  std::printf("ack delay (virtual s): fault-free p99=%.0f max=%.0f | "
              "1%% drop p50=%.0f p99=%.0f max=%.0f retransmissions=%llu\n",
              fault_free.ack_p99_s, fault_free.ack_max_s, drop.ack_p50_s,
              drop.ack_p99_s, drop.ack_max_s,
              static_cast<unsigned long long>(
                  drop.dispatcher.retransmissions));

  bool ok = true;
  // Fault-free: inline resolution only, nothing on the retry machinery.
  if (fault_free.resumed != static_cast<uint64_t>(n) ||
      fault_free.executions != static_cast<uint64_t>(n)) {
    std::printf("FAULT-FREE LOSS: resumed %llu executions %llu of %d\n",
                static_cast<unsigned long long>(fault_free.resumed),
                static_cast<unsigned long long>(fault_free.executions), n);
    ok = false;
  }
  if (fault_free.dispatcher.inline_acked != static_cast<uint64_t>(n) ||
      fault_free.dispatcher.retransmissions != 0 ||
      fault_free.dispatcher.timeouts != 0 || fault_free.ack_max_s != 0) {
    std::printf("FAULT-FREE WIRE NOT QUIET: inline=%llu retx=%llu "
                "timeouts=%llu ack_max=%.0fs\n",
                static_cast<unsigned long long>(
                    fault_free.dispatcher.inline_acked),
                static_cast<unsigned long long>(
                    fault_free.dispatcher.retransmissions),
                static_cast<unsigned long long>(
                    fault_free.dispatcher.timeouts),
                fault_free.ack_max_s);
    ok = false;
  }
  // 1% drop: every workflow still lands, losses covered by retransmits,
  // and the tail stays within two retransmit rounds.
  if (drop.resumed != static_cast<uint64_t>(n)) {
    std::printf("DROP LOSS: resumed %llu of %d\n",
                static_cast<unsigned long long>(drop.resumed), n);
    ok = false;
  }
  if (drop.dispatcher.retransmissions == 0) {
    std::printf("DROP ARM NEVER RETRANSMITTED (wire not lossy?)\n");
    ok = false;
  }
  if (drop.ack_p99_s > 2 * 30) {
    std::printf("ACK TAIL VIOLATION: p99 %.0fs > %ds\n", drop.ack_p99_s,
                2 * 30);
    ok = false;
  }
  if (!fault_free.accounting_ok || !drop.accounting_ok ||
      !fault_free.drained || !drop.drained) {
    std::printf("ACCOUNTING/DRAIN FAILURE: ff(acct=%d drain=%d) "
                "drop(acct=%d drain=%d)\n",
                fault_free.accounting_ok, fault_free.drained,
                drop.accounting_ok, drop.drained);
    ok = false;
  }

  if (!out_path.empty()) {
    std::vector<std::pair<std::string, double>> derived = {
        {"ack_p99_s_fault_free", fault_free.ack_p99_s},
        {"ack_p99_s_drop_1pct", drop.ack_p99_s},
        {"ack_max_s_drop_1pct", drop.ack_max_s},
        {"retransmissions_drop_1pct",
         static_cast<double>(drop.dispatcher.retransmissions)},
        {"throughput_ratio_drop_vs_clean",
         fault_free.micro.ops_per_sec() > 0
             ? drop.micro.ops_per_sec() / fault_free.micro.ops_per_sec()
             : 0},
    };
    if (!WriteMicroJson(out_path, "network", smoke ? "smoke" : "full",
                        {fault_free.micro, drop.micro}, derived)) {
      ok = false;
    }
  }
  std::printf(ok ? "NETWORK BENCH PASSED\n" : "NETWORK BENCH FAILED\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace prorp::bench

int main(int argc, char** argv) {
  auto args = prorp::bench::ParseBenchArgs(argc, argv, "BENCH_network.json");
  if (!args) return 2;
  return prorp::bench::Run(args->smoke, args->out_path);
}
