#include "net/dispatcher.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace prorp::net {

TransportDispatcher::TransportDispatcher(Transport* transport, Options options,
                                         NodeResolver resolver)
    : transport_(transport),
      options_(options),
      resolver_(std::move(resolver)) {
  transport_->RegisterEndpoint(
      kControlPlaneEndpoint,
      [this](const Envelope& env, EpochSeconds now) { HandleReply(env, now); });
}

void TransportDispatcher::set_health_tracker(
    controlplane::NodeHealthTracker* tracker) {
  health_ = tracker;
  health_registered_ = false;
}

void TransportDispatcher::set_service(controlplane::ManagementService* service) {
  service_ = service;
  // The previous incarnation's requests are dead: their ids embed the old
  // epoch, and the new service replays its unacked set from the journal.
  // Any straggler acks fall into the stale/late counters.
  outstanding_.clear();
  in_dispatch_ = false;
  inline_rid_ = 0;
  inline_result_.reset();
}

Status TransportDispatcher::DispatchResume(
    const controlplane::ResumeAttempt& attempt, EpochSeconds now) {
  Envelope env;
  env.type = MessageType::kResumeRequest;
  env.src = kControlPlaneEndpoint;
  env.dst = resolver_ ? resolver_(attempt) : kFirstNode;
  env.request_id = attempt.request_id;
  env.epoch = service_ != nullptr ? service_->epoch() : 0;
  env.sent_at = now;
  env.db = attempt.db;
  env.cls = static_cast<uint8_t>(attempt.cls);
  env.attempt = attempt.attempt;
  env.node_offset = static_cast<uint8_t>(attempt.node_offset);
  env.hedge = attempt.hedge;
  env.enqueued_at = attempt.enqueued_at;

  ++stats_.dispatched;
  // An earlier dispatch under this id is superseded, as if overwritten.
  outstanding_.erase(env.request_id);

  // An inline transport answers before Send returns; the reply handler
  // then stashes the verdict instead of treating it as an async ack, and
  // the dispatch never enters outstanding_.
  in_dispatch_ = true;
  inline_rid_ = env.request_id;
  inline_result_.reset();
  transport_->Send(env);
  in_dispatch_ = false;
  if (inline_result_.has_value()) {
    ++stats_.inline_acked;
    return *inline_result_;
  }
  outstanding_[env.request_id] = Outstanding{env, now, 1};
  return Status::Pending("resume dispatch awaiting ack");
}

void TransportDispatcher::HandleReply(const Envelope& env, EpochSeconds now) {
  switch (env.type) {
    case MessageType::kAck:
    case MessageType::kNack: {
      const uint64_t current_epoch =
          service_ != nullptr ? service_->epoch() : 0;
      if (env.epoch != current_epoch) {
        // A predecessor incarnation's straggler.  Its request id means
        // nothing to this service; count it and move on — the recovered
        // plane already reconciled the underlying workflow.
        ++stats_.stale_epoch_acks;
        if (service_ != nullptr) service_->NoteStaleEpochAck(env.db);
        return;
      }
      // The reply to the dispatch in flight inside Send (the first one:
      // a duplicate delivered inline is late, like any other).
      const bool inline_reply = in_dispatch_ &&
                                env.request_id == inline_rid_ &&
                                !inline_result_.has_value();
      auto it = inline_reply ? outstanding_.end()
                             : outstanding_.find(env.request_id);
      if (!inline_reply && it == outstanding_.end()) {
        // Duplicate delivery, or an ack racing a local resolution (a
        // hedge win, a timeout).  The workflow already settled; telemetry
        // only, no state transition.
        ++stats_.late_acks;
        if (service_ != nullptr) service_->NoteLateAck(env.db);
        return;
      }
      if (!inline_reply) outstanding_.erase(it);
      if (health_ != nullptr && env.enqueued_at > 0 &&
          now >= env.enqueued_at) {
        // The reply echoes its request's transmission time in
        // enqueued_at: per-transmission round-trip latency for the
        // gray-failure score.
        health_->OnAckLatency(env.src, now - env.enqueued_at, now);
      }
      Status verdict = StatusFromCode(env.code, "node reply");
      if (inline_reply) {
        inline_result_ = std::move(verdict);
        return;
      }
      ++stats_.async_acked;
      if (service_ != nullptr) {
        service_->OnDispatchAck(env.db, env.request_id, verdict, now);
      }
      return;
    }
    case MessageType::kLeaseGrant: {
      ++stats_.lease_grants;
      // Thread the granting node through: per-node liveness is the whole
      // point of the lease loop (the aggregate count cannot tell a
      // healthy pool from one dead node hidden by a chatty neighbor).
      ++lease_grants_by_node_[env.src];
      if (health_ != nullptr) {
        const DurationSeconds latency =
            env.enqueued_at > 0 && now >= env.enqueued_at
                ? now - env.enqueued_at
                : 0;
        health_->OnLeaseGrant(env.src, latency, now);
      }
      return;
    }
    case MessageType::kResumeRequest:
    case MessageType::kLeaseRenew:
      // Requests addressed to the plane (misrouted); ignore.
      return;
  }
}

void TransportDispatcher::Tick(EpochSeconds now) {
  if (health_ != nullptr && !health_registered_) {
    // Register the fan-out set at the first tick's virtual time, so an
    // unseen node is neither healthy-forever nor instantly suspect.
    for (int i = 0; i < options_.num_nodes; ++i) {
      health_->Register(kFirstNode + static_cast<EndpointId>(i), now);
    }
    health_registered_ = true;
  }
  transport_->DeliverDue(now);

  // Snapshot + sort so retransmission order is deterministic regardless
  // of hash-map iteration order, and so inline acks erasing entries
  // mid-loop are safe.
  std::vector<uint64_t> rids;
  rids.reserve(outstanding_.size());
  for (const auto& [rid, o] : outstanding_) {
    if (now >= o.last_sent + options_.retransmit_after) rids.push_back(rid);
  }
  std::sort(rids.begin(), rids.end());
  for (uint64_t rid : rids) {
    auto it = outstanding_.find(rid);
    if (it == outstanding_.end()) continue;  // resolved by an earlier resend
    Outstanding& o = it->second;
    if (o.transmissions < kMaxTransmissions) {
      ++stats_.retransmissions;
      ++o.transmissions;
      o.last_sent = now;
      Envelope resend = o.request;
      resend.sent_at = now;
      transport_->Send(resend);  // may inline-ack and erase `it`
    } else {
      // Transmission budget exhausted.  The outcome is UNKNOWN — the node
      // may or may not have executed — so this is reported as a timeout
      // (unacked), never as a failure; recovery reconciles it against the
      // node's actual state.
      const DbId db = o.request.db;
      outstanding_.erase(it);
      ++stats_.timeouts;
      if (service_ != nullptr) service_->OnDispatchTimeout(db, rid, now);
    }
  }

  if (options_.lease_interval > 0 && now >= next_lease_at_) {
    next_lease_at_ = now + options_.lease_interval;
    for (int i = 0; i < options_.num_nodes; ++i) {
      const EndpointId node = kFirstNode + static_cast<EndpointId>(i);
      Envelope lease;
      lease.type = MessageType::kLeaseRenew;
      lease.src = kControlPlaneEndpoint;
      lease.dst = node;
      lease.epoch = service_ != nullptr ? service_->epoch() : 0;
      lease.sent_at = now;
      // Healthy nodes get a real renewal; a suspect or dead node gets a
      // ttl=0 probe — liveness evidence is still solicited, but its
      // fence-safe bound stops advancing, so the node's lease runs out
      // at a time the plane already knows.
      const bool extend =
          health_ == nullptr || health_->ShouldExtendLease(node);
      lease.lease_ttl = extend ? options_.lease_ttl : 0;
      if (extend) {
        ++stats_.lease_renewals;
      } else {
        ++stats_.lease_probes;
      }
      if (health_ != nullptr) {
        health_->OnRenewalSent(node, now, lease.lease_ttl);
      }
      transport_->Send(lease);
    }
  }

  if (health_ != nullptr) health_->AdvanceTime(now);
}

}  // namespace prorp::net
