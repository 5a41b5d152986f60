#include "sim/plane_torture.h"

#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/random.h"
#include "controlplane/durable_control_plane.h"
#include "controlplane/failover.h"
#include "controlplane/node_health.h"
#include "faults/crash_points.h"
#include "faults/fault_plan.h"
#include "net/dispatcher.h"
#include "net/fault_injecting_transport.h"
#include "net/node_agent.h"
#include "policy/lifecycle.h"

namespace prorp::sim {
namespace {

using controlplane::BreakerState;
using controlplane::DurableControlPlane;
using controlplane::FailoverEngine;
using controlplane::NodeHealth;
using controlplane::NodeHealthTracker;
using controlplane::ResumeAttempt;
using telemetry::DbId;
using net::EndpointId;
using net::FaultInjectingTransport;
using net::NodeAgent;
using net::PartitionSpec;
using net::SlowNodeSpec;
using net::TransportDispatcher;

constexpr EpochSeconds kStart = 1'000'000;
constexpr DurationSeconds kStep = 60;
/// ForkStream id of the transport fault stream: message-fault decisions
/// never touch the workload stream.
constexpr uint64_t kTransportFaultStream = 0x6e65746661756c74ULL;  // netfault

/// The node-side truth about one database.  It lives in the harness,
/// outside the control plane: it survives control-plane crashes the way
/// real nodes survive a control-plane failover, and is the oracle
/// recovery reconciles against.  `owner` is the node whose side effects
/// are currently live — the double-live invariant is checked against it
/// on every execution.
struct SimDb {
  bool resumed = false;
  EpochSeconds resumed_at = 0;
  EpochSeconds pending_completion = 0;  // 0 = none
  bool outstanding_reactive = false;    // acked login awaiting resources
  uint32_t owner = 0;                   // node holding live side effects
};

ControlPlaneConfig TortureConfig(const PlaneTortureOptions& opt) {
  ControlPlaneConfig config;
  config.prewarm_interval = 300;
  config.resume_operation_period = kStep;
  // Backoff short enough that an outage window's failures retry well
  // within the run, long enough that max_attempts spans any outage — a
  // reactive workflow must never exhaust into an incident (that would be
  // an accepted-login loss the harness would rightly flag).
  config.retry_backoff_base = 60;
  config.retry_backoff_cap = 240;
  config.breaker_window = 10;
  config.breaker_failure_ratio = 0.5;
  config.breaker_open_duration = 300;
  config.queue_capacity = 32;
  config.admission_control_enabled = true;
  config.deadline_hedging_enabled = true;
  config.deadline_reactive = 120;
  config.deadline_imminent = 600;
  config.storm_login_spike_threshold = opt.storm ? 16 : 0;
  config.storm_recovery_backlog = 8;
  config.storm_cooldown = 900;
  config.catch_up_enabled = true;
  config.catch_up_lookback = 3600;
  return config;
}

PartitionSpec::Direction PartitionDirection(NodeFaultSpec::Kind kind) {
  switch (kind) {
    case NodeFaultSpec::Kind::kZombie:
      return PartitionSpec::Direction::kFromNodes;
    case NodeFaultSpec::Kind::kDeaf:
      return PartitionSpec::Direction::kToNodes;
    default:
      return PartitionSpec::Direction::kBoth;
  }
}

class Harness {
 public:
  explicit Harness(const PlaneTortureOptions& opt)
      : opt_(opt),
        dbs_(static_cast<size_t>(opt.num_dbs)),
        rng_(opt.seed * 0x9e3779b97f4a7c15ULL + 1),
        fail_rng_(opt.seed ^ 0xdeadbeefcafef00dULL),
        plan_(Rng(opt.seed).ForkStream(kTransportFaultStream).NextU64()),
        transport_(&plan_, TransportOptions()),
        dispatcher_(&transport_, DispatcherOptions(opt),
                    [this](const ResumeAttempt& a) { return Route(a); }) {
    // Registration order decides which fault fires first on one message.
    const std::pair<double, faults::FaultKind> message_faults[] = {
        {opt.drop_p, faults::FaultKind::kMsgDrop},
        {opt.duplicate_p, faults::FaultKind::kMsgDuplicate},
        {opt.delay_p, faults::FaultKind::kMsgDelay},
    };
    for (const auto& [p, kind] : message_faults) {
      if (p <= 0) continue;
      plan_.FailWithProbability(faults::FaultOp::kMsgRequest, p, kind);
      plan_.FailWithProbability(faults::FaultOp::kMsgAck, p, kind);
    }

    // Partition and slow faults are transport-level windows, installed up
    // front on the absolute clock; crashes are applied in the step loop.
    for (const NodeFaultSpec& f : opt.faults) {
      const EpochSeconds from = StepTime(f.at_step);
      const EpochSeconds until = StepTime(f.at_step + f.duration_steps);
      switch (f.kind) {
        case NodeFaultSpec::Kind::kZombie:
        case NodeFaultSpec::Kind::kDeaf:
        case NodeFaultSpec::Kind::kPartition: {
          PartitionSpec p;
          p.from = from;
          p.until = until;
          p.direction = PartitionDirection(f.kind);
          p.first_node = f.node;
          p.last_node = f.node;
          transport_.AddPartition(p);
          break;
        }
        case NodeFaultSpec::Kind::kSlow: {
          SlowNodeSpec s;
          s.node = f.node;
          s.from = from;
          s.until = until;
          s.delay = f.slow_delay;
          transport_.AddSlowNode(s);
          break;
        }
        case NodeFaultSpec::Kind::kCrash:
          break;
      }
    }

    for (int n = 0; n < opt.num_nodes; ++n) {
      const auto id = static_cast<EndpointId>(1 + n);
      agents_.push_back(std::make_unique<NodeAgent>(
          id, &transport_,
          [this, id](const ResumeAttempt& a, EpochSeconds t) {
            return NodeResume(id, a, t);
          }));
      agents_.back()->set_quiesce_handler(
          [this, id](EpochSeconds t) { ReleaseNode(id, t); });
    }

    if (opt.detection_enabled) BuildDetection();
  }

  Result<PlaneTortureResult> Run() {
    PRORP_RETURN_IF_ERROR(Reopen(kStart));

    // Bootstrap: every database starts physically paused; roughly half
    // get an activity prediction (the proactive path), the rest will only
    // come back through reactive logins.
    now_ = kStart;
    for (int i = 0; i < opt_.num_dbs; ++i) {
      EpochSeconds pred =
          rng_.NextBool(0.5)
              ? now_ + 120 + static_cast<EpochSeconds>(rng_.NextBelow(
                                 static_cast<uint64_t>(opt_.steps) * kStep))
              : 0;
      // Every database must end up registered: an unacknowledged
      // bootstrap mutation is retried after the recovery (otherwise a
      // later login would target a database the metadata never saw).
      for (;;) {
        PRORP_ASSIGN_OR_RETURN(
            bool acked, TryUpsert(static_cast<DbId>(i),
                                  policy::DbState::kPhysicallyPaused, pred));
        if (acked) break;
      }
    }

    const int outage_start = opt_.steps / 3;
    const int outage_end = outage_start + 5;
    const int storm_step = opt_.steps / 2;
    for (int step = 0; step < opt_.steps; ++step) {
      now_ = StepTime(step);
      outage_now_ = opt_.outage && step >= outage_start && step < outage_end;

      // Node-fault edges: crash onset kills the agent and destroys its
      // side effects; crash end restarts the process.  Partition/slow
      // windows are transport-resident — only their onset is recorded
      // here, for the detection-delay clock.
      for (const NodeFaultSpec& f : opt_.faults) {
        if (step == f.at_step) {
          fault_started_[f.node] = now_;
          if (f.kind == NodeFaultSpec::Kind::kCrash) {
            agents_[f.node - 1]->Crash();
            ReleaseNode(f.node, now_);
          }
        }
        if (step == f.at_step + f.duration_steps &&
            f.kind == NodeFaultSpec::Kind::kCrash) {
          agents_[f.node - 1]->Restart(now_);
        }
      }

      // Control-plane crash with unacked dispatches on the wire and
      // floaters in the transport.
      if (step == opt_.crash_at_step) PRORP_RETURN_IF_ERROR(Recover());

      // Pause churn: completed databases go idle again with fresh
      // predictions, creating new pause episodes.
      for (int i = 0; i < opt_.num_dbs; ++i) {
        SimDb& d = dbs_[static_cast<size_t>(i)];
        if (!d.resumed || d.pending_completion != 0) continue;
        if (!rng_.NextBool(0.05)) continue;
        EpochSeconds pred =
            rng_.NextBool(0.5)
                ? now_ + 120 + static_cast<EpochSeconds>(rng_.NextBelow(600))
                : 0;
        PRORP_ASSIGN_OR_RETURN(
            bool acked, TryUpsert(static_cast<DbId>(i),
                                  policy::DbState::kPhysicallyPaused, pred));
        if (!acked) continue;  // pause not acknowledged; stay resumed
        d.resumed = false;
        d.owner = 0;
        placed_.erase(static_cast<DbId>(i));
      }

      // Reactive logins: a base trickle, plus a spike at the storm step.
      int logins = static_cast<int>(rng_.NextBelow(3));
      if (opt_.storm && step == storm_step) logins = 24;
      for (int n = 0; n < logins; ++n) {
        int i = static_cast<int>(
            rng_.NextBelow(static_cast<uint64_t>(opt_.num_dbs)));
        SimDb& d = dbs_[static_cast<size_t>(i)];
        if (d.resumed || d.outstanding_reactive) continue;
        Status s =
            plane_->service().EnqueueReactive(static_cast<DbId>(i), now_);
        if (Crashed()) {
          PRORP_RETURN_IF_ERROR(Recover());
          continue;  // login not acknowledged; the customer retries later
        }
        PRORP_RETURN_IF_ERROR(s);
        ++result_.accepted_reactive;
        d.outstanding_reactive = true;
        login_at_[static_cast<DbId>(i)] = now_;
      }

      PRORP_RETURN_IF_ERROR(RunOnce());
      PRORP_RETURN_IF_ERROR(SubTicks());
      PRORP_RETURN_IF_ERROR(DeliverCompletions());

      Status ck = plane_->MaybeCheckpoint();
      if (Crashed() || ck.code() == StatusCode::kAborted) {
        // An injected crash inside the checkpoint writer is a process
        // death even though the journal stayed healthy: the tmp file is
        // abandoned and the previous checkpoint still rules recovery.
        PRORP_RETURN_IF_ERROR(Recover());
      } else if (!ck.ok()) {
        return ck;
      }
    }

    PRORP_RETURN_IF_ERROR(Drain());

    for (const SimDb& d : dbs_) {
      if (d.outstanding_reactive && !d.resumed) ++result_.lost_reactive;
    }
    FoldDetectionStats();
    const auto& diag = plane_->service().diagnostics();
    const auto& dstats = dispatcher_.stats();
    result_.accounting_ok = plane_->service().AccountingReconciles();
    result_.incidents = diag.incidents;
    result_.total_resumed = plane_->service().total_resumed();
    result_.dispatch_timeouts = diag.dispatch_timeouts;
    result_.retransmissions = dstats.retransmissions;
    result_.lease_probes = dstats.lease_probes;
    result_.late_acks = dstats.late_acks + diag.late_acks;
    result_.stale_epoch_acks = dstats.stale_epoch_acks + diag.stale_epoch_acks;
    result_.failover_requeues = diag.failover_requeues;
    for (const auto& agent : agents_) {
      result_.self_quiesces += agent->stats().self_quiesces;
      result_.lease_expired_rejected += agent->stats().lease_expired_rejected;
      result_.duplicate_suppressed += agent->stats().duplicate_suppressed;
      result_.stale_epoch_rejected += agent->stats().stale_epoch_rejected;
    }
    result_.transport = transport_.stats();
    return result_;
  }

 private:
  static EpochSeconds StepTime(int step) {
    return kStart + static_cast<EpochSeconds>(step + 1) * kStep;
  }

  /// Injected delays long enough (up to ten steps) that delayed requests
  /// routinely outlive retransmission budgets, partition windows, and
  /// control-plane crashes — which is what makes the fence and the
  /// late/stale-ack paths load-bearing in every delay cell.
  static FaultInjectingTransport::Options TransportOptions() {
    FaultInjectingTransport::Options topt;
    topt.delay_min = 30;
    topt.delay_max = 600;
    return topt;
  }

  static TransportDispatcher::Options DispatcherOptions(
      const PlaneTortureOptions& opt) {
    TransportDispatcher::Options dopt;
    dopt.retransmit_after = 30;
    dopt.max_transmissions = 4;
    dopt.lease_interval = opt.lease_interval;
    dopt.lease_ttl = opt.detection_enabled ? opt.lease_ttl : 0;
    dopt.first_node = 1;
    dopt.num_nodes = opt.num_nodes;
    return dopt;
  }

  NodeHealthTracker::Options TrackerOptions() const {
    NodeHealthTracker::Options topt;
    topt.lease_ttl = opt_.lease_ttl;
    topt.suspect_after = opt_.suspect_after;
    topt.dead_grace = opt_.dead_grace;
    topt.rejoin_after = opt_.rejoin_after;
    topt.slow_p99_threshold = opt_.slow_p99_threshold;
    topt.min_latency_samples = opt_.min_latency_samples;
    return topt;
  }

  /// (Re)builds the detector and failover engine — at construction, and
  /// again after a control-plane crash (a fresh incarnation's detector
  /// starts empty and re-learns node health from live traffic).
  void BuildDetection() {
    tracker_ = std::make_unique<NodeHealthTracker>(TrackerOptions());
    engine_ = std::make_unique<FailoverEngine>(
        nullptr, tracker_.get(), [this](uint32_t node) {
          std::vector<DbId> out;
          for (const auto& [db, owner] : placed_) {
            if (owner == node) out.push_back(db);
          }
          return out;
        });
    engine_->set_requeue_hook([this](DbId db, uint32_t, EpochSeconds t) {
      requeued_at_[db] = t;
    });
    deaths_seen_ = 0;
    dispatcher_.set_health_tracker(tracker_.get());
  }

  /// Accumulates the current detector/engine generation's counters into
  /// the result (called before the generation is discarded, and once at
  /// the end of the run).
  void FoldDetectionStats() {
    if (tracker_ == nullptr) return;
    HarvestDeaths();
    result_.node_rejoins += tracker_->stats().rejoins;
    result_.suspects_gray_failure += tracker_->stats().suspects_gray_failure;
    result_.failover_deduped += engine_->stats().deduped;
  }

  /// Routes an attempt to its home node unless the detector has declared
  /// that node dead — death is strictly past the node's fence-safe time,
  /// so diverting then (and only then) cannot double-live a database.
  EndpointId Route(const ResumeAttempt& a) {
    auto target = static_cast<uint32_t>(
        1 + (a.db + static_cast<uint32_t>(a.node_offset)) %
                static_cast<uint32_t>(opt_.num_nodes));
    if (tracker_ == nullptr) return static_cast<EndpointId>(target);
    bool diverted = false;
    for (int i = 0; i < opt_.num_nodes; ++i) {
      if (tracker_->health(target) != NodeHealth::kDead) break;
      target = target % static_cast<uint32_t>(opt_.num_nodes) + 1;
      diverted = true;
    }
    if (diverted) ++result_.diverted_dispatches;
    return static_cast<EndpointId>(target);
  }

  /// The resume side effect as node `node` executes it — behind the
  /// agent's dedup table, epoch fence, and lease fence, so reaching here
  /// twice for one request id, or at all below a fence, is an invariant
  /// violation.  Everything here survives a control-plane crash: the
  /// effect is on the node, and recovery must reconcile against it.
  Status NodeResume(EndpointId node, const ResumeAttempt& a,
                    EpochSeconds now) {
    // The agent only calls the executor while it believes it may work; if
    // its lease has in fact lapsed, the self-quiesce fence failed.
    if (!agents_[node - 1]->LeaseValid(now)) ++result_.fence_violations;
    SimDb& d = dbs_[a.db];
    if (outage_now_) return Status::Unavailable("resume path outage");
    if (d.resumed) {
      // Workflows accepted after the resume (enqueued_at beyond
      // resumed_at) are ordinary stale pre-warms, not duplicates.
      if (!a.hedge && a.enqueued_at <= d.resumed_at) {
        ++result_.duplicate_resumes;
      }
      return Status::FailedPrecondition("already resumed");
    }
    if (!drain_mode_ && fail_rng_.NextBool(opt_.fail_probability)) {
      return Status::Unavailable("transient workflow failure");
    }
    if ((a.request_id >> 32) < current_epoch_) ++result_.stale_epoch_applied;
    if (!applied_rids_.insert(a.request_id).second) ++result_.double_applies;
    if (d.owner != 0 && d.owner != node) ++result_.double_live;
    d.resumed = true;
    d.resumed_at = now;
    d.pending_completion = now + 30;
    d.owner = node;
    placed_[a.db] = node;
    if (auto it = requeued_at_.find(a.db); it != requeued_at_.end()) {
      if (now >= it->second) {
        result_.replacement_delay.Add(static_cast<double>(now - it->second));
      }
      requeued_at_.erase(it);
    }
    // The metadata mutation is part of the workflow and journals through
    // the control plane; an injected crash inside it surfaces as Aborted.
    return plane_->metadata().UpsertState(a.db, policy::DbState::kResumed, 0);
  }

  /// Destroys every side effect node `node` holds — invoked by the
  /// agent's self-quiesce (lease lapsed) and by the harness at crash
  /// onset.  The plane's placement belief (`placed_`) is deliberately
  /// NOT touched: the plane does not observe the quiesce, it re-learns
  /// through failover or reconciliation.
  void ReleaseNode(uint32_t node, EpochSeconds /*now*/) {
    for (auto& d : dbs_) {
      if (d.owner != node) continue;
      d.resumed = false;
      d.pending_completion = 0;
      d.owner = 0;
    }
  }

  /// One iteration of the proactive resume operation.
  Status RunOnce() {
    Result<uint64_t> ran = plane_->service().RunOnce(now_);
    if (Crashed()) return Recover();
    return ran.status();
  }

  /// Per-sub-tick machinery: local node clocks (self-quiesce), message
  /// delivery + retransmission + lease fan-out, death declarations and
  /// their failovers, then the service drains any requeued work.
  Status SubTicks() {
    for (DurationSeconds dt = 10; dt < kStep; dt += 10) {
      const EpochSeconds t = now_ + dt;
      for (const auto& agent : agents_) agent->AdvanceTime(t);
      dispatcher_.Tick(t);
      if (Crashed()) PRORP_RETURN_IF_ERROR(Recover());
      if (engine_ != nullptr) {
        Status s = engine_->Tick(t);
        if (Crashed()) {
          PRORP_RETURN_IF_ERROR(Recover());
        } else {
          PRORP_RETURN_IF_ERROR(s);
          HarvestDeaths();
        }
      }
      plane_->service().Pump(t);
      if (Crashed()) PRORP_RETURN_IF_ERROR(Recover());
    }
    return Status::OK();
  }

  /// Folds newly recorded death declarations into the result, clocking
  /// each against its fault's onset.
  void HarvestDeaths() {
    const auto& deaths = engine_->deaths();
    for (; deaths_seen_ < deaths.size(); ++deaths_seen_) {
      const auto& death = deaths[deaths_seen_];
      ++result_.deaths_declared;
      auto it = fault_started_.find(death.node);
      if (it != fault_started_.end() && death.declared_at >= it->second) {
        result_.detection_delay.Add(
            static_cast<double>(death.declared_at - it->second));
      }
    }
  }

  /// Attempts a metadata mutation.  Returns true when acknowledged;
  /// false when the control plane died mid-mutation (already recovered —
  /// the caller decides whether to retry or let the fleet converge later).
  Result<bool> TryUpsert(DbId db, policy::DbState state, EpochSeconds pred) {
    Status s = plane_->metadata().UpsertState(db, state, pred);
    if (Crashed()) {
      PRORP_RETURN_IF_ERROR(Recover());
      return false;
    }
    PRORP_RETURN_IF_ERROR(s);
    return true;
  }

  /// Workflow completions report over a reliable side channel (the
  /// node's resource-arrival signal), not the lossy request/ack
  /// transport.
  Status DeliverCompletions() {
    for (int i = 0; i < opt_.num_dbs; ++i) {
      SimDb& d = dbs_[static_cast<size_t>(i)];
      if (d.pending_completion == 0 || d.pending_completion > now_) continue;
      if (!d.resumed) {
        d.pending_completion = 0;  // released again before delivery
        continue;
      }
      if (plane_->service().IsUnacked(static_cast<DbId>(i))) {
        // The resume's ack is still on the wire: hold the level-triggered
        // resource-arrival signal until the ack resolves.
        continue;
      }
      // Re-assert the metadata state first: if a crash ate the
      // in-workflow upsert, this repair is how the fleet converges
      // (idempotent when nothing was lost).
      PRORP_ASSIGN_OR_RETURN(
          bool acked,
          TryUpsert(static_cast<DbId>(i), policy::DbState::kResumed, 0));
      if (!acked) continue;  // not cleared; redelivered next step
      plane_->service().CompleteWorkflow(static_cast<DbId>(i), now_);
      if (Crashed()) {
        PRORP_RETURN_IF_ERROR(Recover());
        continue;
      }
      d.pending_completion = 0;
      if (d.outstanding_reactive) {
        d.outstanding_reactive = false;
        if (auto it = login_at_.find(static_cast<DbId>(i));
            it != login_at_.end()) {
          if (now_ >= it->second) {
            result_.login_wait.Add(static_cast<double>(now_ - it->second));
          }
          login_at_.erase(it);
        }
      }
    }
    return Status::OK();
  }

  /// Runs the clock forward with faults disarmed until every queued,
  /// in-flight, and unacked workflow resolved and the wire is empty
  /// (backoffs elapse, the breaker cools down, storms ramp out).
  /// Node-fault windows are all behind us by construction; any agent
  /// still crashed (a window extending past the last step) is restarted
  /// first.
  Status Drain() {
    drain_mode_ = true;
    outage_now_ = false;
    transport_.set_fault_plan(nullptr);
    if (journal_plan_ != nullptr) {
      plane_->journal().set_fault_plan(nullptr);
      journal_plan_.reset();
    }
    for (const auto& agent : agents_) {
      if (agent->down()) agent->Restart(now_);
    }
    for (int iter = 0; iter < 600; ++iter) {
      if (plane_->service().pending_workflows() == 0 &&
          plane_->service().in_flight() == 0 &&
          plane_->service().unacked() == 0 && dispatcher_.Idle() &&
          transport_.Idle()) {
        result_.drained = true;
        // Flush any floaters a previous incarnation left behind: they
        // land in the late/stale counters.
        transport_.DeliverDue(now_ + 1'000'000);
        return Status::OK();
      }
      now_ += kStep;
      PRORP_RETURN_IF_ERROR(RunOnce());
      PRORP_RETURN_IF_ERROR(SubTicks());
      PRORP_RETURN_IF_ERROR(DeliverCompletions());
    }
    return Status::TimedOut(
        "plane torture drain did not converge: pending=" +
        std::to_string(plane_->service().pending_workflows()) +
        " in_flight=" + std::to_string(plane_->service().in_flight()) +
        " unacked=" + std::to_string(plane_->service().unacked()) +
        " outstanding=" + std::to_string(dispatcher_.outstanding()) +
        " wire_idle=" + (transport_.Idle() ? "y" : "n"));
  }

  bool Crashed() const { return plane_ == nullptr || !plane_->healthy(); }

  /// Control-plane death and recovery.  The detector and the failover
  /// engine die with the plane: the new incarnation starts from a fresh
  /// tracker (nodes re-register healthy) and re-detects any still-dead
  /// node from its continuing grant silence — the exactly-once argument
  /// does not depend on detector state surviving.
  Status Recover() {
    if (result_.recoveries >= opt_.max_recoveries) {
      return Status::ResourceExhausted("too many control-plane recoveries");
    }
    // Conservative-restore check: an open breaker must never recover
    // closed (the window restarts empty; open waits out its cool-down).
    const bool was_open =
        plane_->service().breaker_state() == BreakerState::kOpen;
    plane_.reset();
    ++result_.recoveries;
    if (opt_.detection_enabled) {
      FoldDetectionStats();
      BuildDetection();
    }
    PRORP_RETURN_IF_ERROR(Reopen(now_));
    if (was_open &&
        plane_->service().breaker_state() == BreakerState::kClosed) {
      result_.breaker_recovered_closed_early = true;
    }
    return Status::OK();
  }

  Status Reopen(EpochSeconds now) {
    DurableControlPlane::Options popt;
    popt.dir = opt_.dir;
    popt.config = TortureConfig(opt_);
    popt.max_attempts = 10;
    popt.checkpoint_every = opt_.checkpoint_every;
    journal_plan_ = nullptr;
    if (opt_.journal_fault_probability > 0 && !drain_mode_) {
      journal_plan_ = std::make_unique<faults::FaultPlan>(
          opt_.seed + 0x1000ull * static_cast<uint64_t>(result_.recoveries));
      // Alternate the failure flavor so both plain I/O errors and ENOSPC
      // fail-stops hit the journal across recoveries.
      faults::FaultKind kind = result_.recoveries % 2 == 0
                                   ? faults::FaultKind::kIoError
                                   : faults::FaultKind::kDiskFull;
      journal_plan_->FailWithProbability(faults::FaultOp::kWalAppend,
                                         opt_.journal_fault_probability, kind);
      journal_plan_->FailWithProbability(faults::FaultOp::kWalSync,
                                         opt_.journal_fault_probability / 2,
                                         faults::FaultKind::kIoError);
    }
    popt.fault_plan = journal_plan_.get();
    for (;;) {
      auto opened = DurableControlPlane::Open(
          popt,
          [this](const ResumeAttempt& a, EpochSeconds t) {
            return dispatcher_.DispatchResume(a, t);
          },
          [this](DbId db) { return dbs_[db].resumed; }, now);
      if (opened.ok()) {
        plane_ = std::move(*opened);
        break;
      }
      // A crash or journal fault fired inside recovery itself: the
      // journaled reconcile prefix replays on the next attempt.
      if (result_.recoveries >= opt_.max_recoveries) {
        return opened.status();
      }
      ++result_.recoveries;
    }
    // Order matters: repoint the dispatcher (killing the predecessor's
    // outstanding table) and the failover engine at the new incarnation,
    // then fence every node under the new epoch — all before the harness
    // delivers another message, so a floater can never execute against a
    // stale fence (the analogue of a synchronous fencing RPC).
    dispatcher_.set_service(&plane_->service());
    if (engine_ != nullptr) engine_->set_service(&plane_->service());
    current_epoch_ = plane_->service().epoch();
    for (const auto& agent : agents_) agent->FenceEpoch(current_epoch_);
    return Status::OK();
  }

  const PlaneTortureOptions& opt_;
  std::vector<SimDb> dbs_;
  Rng rng_;
  Rng fail_rng_;
  faults::FaultPlan plan_;
  FaultInjectingTransport transport_;
  TransportDispatcher dispatcher_;
  std::vector<std::unique_ptr<NodeAgent>> agents_;
  std::unique_ptr<NodeHealthTracker> tracker_;
  std::unique_ptr<FailoverEngine> engine_;
  std::unique_ptr<faults::FaultPlan> journal_plan_;
  std::unique_ptr<DurableControlPlane> plane_;
  PlaneTortureResult result_;
  std::unordered_set<uint64_t> applied_rids_;
  /// Plane-side placement belief: where each database last executed a
  /// resume.  Survives node quiesces and plane crashes (placement
  /// metadata is durable in the real system); the failover engine
  /// enumerates from it.
  std::map<DbId, uint32_t> placed_;
  std::unordered_map<DbId, EpochSeconds> requeued_at_;
  std::unordered_map<DbId, EpochSeconds> login_at_;
  std::map<uint32_t, EpochSeconds> fault_started_;
  size_t deaths_seen_ = 0;
  uint64_t current_epoch_ = 0;
  EpochSeconds now_ = kStart;
  bool outage_now_ = false;
  bool drain_mode_ = false;
};

}  // namespace

Result<PlaneTortureResult> RunPlaneTorture(
    const PlaneTortureOptions& options) {
  if (options.num_dbs < 1) {
    return Status::InvalidArgument("plane torture needs num_dbs >= 1");
  }
  if (options.num_nodes < 1) {
    return Status::InvalidArgument("plane torture needs num_nodes >= 1");
  }
  for (const NodeFaultSpec& f : options.faults) {
    if (f.node < 1 || f.node > static_cast<uint32_t>(options.num_nodes)) {
      return Status::InvalidArgument(
          "node fault targets node " + std::to_string(f.node) +
          " outside [1, " + std::to_string(options.num_nodes) + "]");
    }
  }
  auto& registry = faults::CrashPointRegistry::Global();
  const bool armed = !options.crash_point.empty();
  if (armed) {
    registry.Arm(options.crash_point, options.crash_nth,
                 options.crash_payload);
  }
  Harness harness(options);
  Result<PlaneTortureResult> result = harness.Run();
  if (armed) {
    if (result.ok()) result->crash_fired = registry.fired();
    registry.Reset();
  }
  return result;
}

Result<std::map<std::string, uint64_t>> ObservePlaneCrashPoints(
    const PlaneTortureOptions& options) {
  auto& registry = faults::CrashPointRegistry::Global();
  registry.Reset();
  registry.SetCounting(true);
  PlaneTortureOptions observe = options;
  observe.crash_point.clear();
  observe.journal_fault_probability = 0;
  Result<PlaneTortureResult> run = RunPlaneTorture(observe);
  std::map<std::string, uint64_t> hits;
  for (std::string_view point : faults::ControlPlaneCrashPoints()) {
    hits[std::string(point)] = registry.hits(point);
  }
  registry.Reset();
  if (!run.ok()) return run.status();
  return hits;
}

}  // namespace prorp::sim
