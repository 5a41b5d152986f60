#include "net/node_agent.h"

#include <algorithm>
#include <utility>

namespace prorp::net {

NodeAgent::NodeAgent(EndpointId id, Transport* transport, Executor resume)
    : id_(id), transport_(transport), resume_(std::move(resume)) {
  transport_->RegisterEndpoint(
      id_, [this](const Envelope& env, EpochSeconds now) {
        HandleMessage(env, now);
      });
}

void NodeAgent::FenceEpoch(uint64_t epoch) {
  fence_epoch_ = std::max(fence_epoch_, epoch);
}

void NodeAgent::Quiesce(EpochSeconds now) {
  // The lease lapsed: every side effect this node produced is released,
  // so the applied-request ids describe a world that no longer
  // exists.  Voiding the table means a post-re-lease redelivery
  // re-executes (correctly — the work has to be redone), instead of
  // re-acking a resume that is no longer live.
  ++stats_.self_quiesces;
  lease_valid_until_ = 0;
  refuse_before_ = std::max(refuse_before_, now);
  applied_.clear();
  if (quiesce_) quiesce_(now);
}

void NodeAgent::AdvanceTime(EpochSeconds now) {
  if (down_) return;
  if (lease_enforced_ && lease_valid_until_ > 0 && now > lease_valid_until_) {
    Quiesce(now);
  }
}

void NodeAgent::Restart(EpochSeconds now) {
  down_ = false;
  lease_valid_until_ = 0;
  refuse_before_ = std::max(refuse_before_, now);
  applied_.clear();
}

void NodeAgent::Reply(const Envelope& request, MessageType type,
                      StatusCode code, uint32_t flags, EpochSeconds now) {
  Envelope reply;
  reply.type = type;
  reply.src = id_;
  reply.dst = request.src;
  reply.request_id = request.request_id;
  // Replies echo the REQUEST's epoch: a recovered plane recognizes its
  // predecessor's stragglers by the old epoch coming back.
  reply.epoch = request.epoch;
  reply.sent_at = now;
  reply.db = request.db;
  reply.cls = request.cls;
  reply.attempt = request.attempt;
  reply.hedge = request.hedge;
  // Echo the transmission's send time so the plane can score this node's
  // per-transmission round-trip latency (gray-failure detection).
  reply.enqueued_at = request.sent_at;
  reply.code = code;
  reply.flags = flags;
  transport_->Send(reply);
}

void NodeAgent::HandleMessage(const Envelope& env, EpochSeconds now) {
  if (down_) return;  // crashed process: the message falls on the floor
  // Message arrival is also a clock observation: a lapsed lease fences
  // the node before anything else is considered.
  AdvanceTime(now);
  switch (env.type) {
    case MessageType::kResumeRequest: {
      ++stats_.requests;
      if (env.epoch < fence_epoch_) {
        // A previous incarnation's late message: reject, never execute.
        ++stats_.stale_epoch_rejected;
        Reply(env, MessageType::kNack, StatusCode::kFailedPrecondition,
              kMfStaleEpoch, now);
        return;
      }
      fence_epoch_ = std::max(fence_epoch_, env.epoch);
      if ((lease_enforced_ && now > lease_valid_until_) ||
          env.sent_at <= refuse_before_) {
        // Lease fence: no live lease (or the request predates a quiesce
        // or restart).  Refuse without executing — the plane will
        // re-place the database once the node is declared dead.
        ++stats_.lease_expired_rejected;
        Reply(env, MessageType::kNack, StatusCode::kUnavailable,
              kMfLeaseExpired, now);
        return;
      }
      if (applied_.count(env.request_id) != 0) {
        // Redelivery of a request whose side effect already ran: ack it
        // again, execute nothing.
        ++stats_.duplicate_suppressed;
        Reply(env, MessageType::kAck, StatusCode::kOk, kMfDuplicateDelivery,
              now);
        return;
      }
      controlplane::ResumeAttempt attempt;
      attempt.db = env.db;
      attempt.cls = static_cast<controlplane::ResumeClass>(env.cls);
      attempt.attempt = env.attempt;
      attempt.hedge = env.hedge;
      attempt.node_offset = env.node_offset;
      attempt.enqueued_at = env.enqueued_at;
      attempt.request_id = env.request_id;
      ++stats_.executed;
      Status s = resume_(attempt, now);
      if (s.ok() && transport_->CanRedeliver()) {
        applied_.insert(env.request_id);
      }
      Reply(env, s.ok() ? MessageType::kAck : MessageType::kNack, s.code(),
            0, now);
      return;
    }
    case MessageType::kLeaseRenew: {
      // Lease renewals double as epoch advertisements: they raise the
      // fence even when no workflow is in flight.
      fence_epoch_ = std::max(fence_epoch_, env.epoch);
      if (env.lease_ttl > 0) {
        // The lease runs from the renewal's SEND time, not its arrival:
        // a renewal delayed in the network extends the lease no further
        // than the plane already accounted for when it sent it.
        lease_enforced_ = true;
        lease_valid_until_ =
            std::max(lease_valid_until_, env.sent_at + env.lease_ttl);
      }
      // Probes (ttl == 0) are still granted: the grant is liveness
      // evidence for the tracker, it just doesn't extend the lease.
      ++stats_.leases_granted;
      Reply(env, MessageType::kLeaseGrant, StatusCode::kOk, 0, now);
      return;
    }
    case MessageType::kAck:
    case MessageType::kNack:
    case MessageType::kLeaseGrant:
      // Replies addressed to a node (misrouted); ignore.
      return;
  }
}

}  // namespace prorp::net
