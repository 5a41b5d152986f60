#ifndef PRORP_NET_NODE_AGENT_H_
#define PRORP_NET_NODE_AGENT_H_

#include <cstdint>
#include <functional>
#include <unordered_set>

#include "controlplane/management_service.h"
#include "net/transport.h"

namespace prorp::net {

/// Node-side endpoint of the resume protocol: receives requests
/// from the transport, makes apply idempotent and epoch-fenced, and acks.
///
/// Idempotence: when the transport can redeliver a request, a per-node
/// applied-request table records every request id whose execution
/// produced a side effect (the executor returned OK).  A redelivery of
/// such an id is acked OK without running anything.  Failed attempts are
/// deliberately NOT recorded: they had no side effect, so a
/// retransmission doubles as a retry.  Over a transport that never
/// redelivers (InProcessTransport) no id can arrive twice, so the agent
/// keeps no per-request state at all.
///
/// Fencing: the agent tracks the highest control-plane epoch it has seen
/// (a ratchet; every message raises it, and recovery raises it explicitly
/// through FenceEpoch).  A request below the fence is a predecessor
/// incarnation's late message — it is nacked with kMfStaleEpoch and never
/// executed, so a recovered control plane can never be raced by its
/// predecessor's stragglers.
///
/// Lease fencing: when a renewal carries a nonzero lease_ttl the agent
/// becomes lease-enforced.  Its lease runs to renewal.sent_at + ttl — the
/// SEND time, so a renewal that sat in the network cannot extend the
/// lease past what the plane already accounted for.  Once the lease
/// lapses (AdvanceTime, or any message arriving after the deadline) the
/// agent self-quiesces: it releases its resumed databases through the
/// quiesce handler, voids its applied-request table (those entries
/// described side effects that no longer exist), and refuses every
/// request until a fresh nonzero-ttl renewal re-leases it.  This is the
/// node half of split-brain prevention — a partitioned "zombie" can never
/// still be executing work after the plane's fence-safe time.
class NodeAgent {
 public:
  /// Executes one workflow attempt on the node (the actual resume side
  /// effect).  Same shape as the management service's callback.
  using Executor = std::function<Status(const controlplane::ResumeAttempt&,
                                        EpochSeconds now)>;

  /// Invoked once per self-quiesce, after the agent fenced itself: the
  /// harness releases every database this node had resumed (the side
  /// effects die with the lease).
  using QuiesceHandler = std::function<void(EpochSeconds now)>;

  struct Stats {
    uint64_t requests = 0;              ///< resume requests received
    uint64_t executed = 0;              ///< executor invocations
    uint64_t duplicate_suppressed = 0;  ///< redeliveries served from table
    uint64_t stale_epoch_rejected = 0;  ///< fenced requests, never executed
    uint64_t leases_granted = 0;
    uint64_t lease_expired_rejected = 0;  ///< refused while lease lapsed
    uint64_t self_quiesces = 0;           ///< lease-lapse fence trips
  };

  /// Registers the agent as `id` on `transport`.
  NodeAgent(EndpointId id, Transport* transport, Executor resume);

  /// Raises the epoch fence (never lowers it).  The recovery path calls
  /// this on every node before re-dispatching, so stragglers from the
  /// previous incarnation are dead on arrival.
  void FenceEpoch(uint64_t epoch);
  uint64_t fence_epoch() const { return fence_epoch_; }

  void set_quiesce_handler(QuiesceHandler handler) {
    quiesce_ = std::move(handler);
  }

  /// Advances the node's local clock.  A lease-enforced agent whose lease
  /// deadline has passed self-quiesces here — this is how a FULLY
  /// partitioned node (no messages arriving at all) still fences itself
  /// by the plane's known bound.
  void AdvanceTime(EpochSeconds now);

  /// Simulates process death: the agent drops every message until
  /// Restart().  The harness owns the side effects and releases them at
  /// crash time itself.
  void Crash() { down_ = true; }
  bool down() const { return down_; }

  /// Simulates process restart at `now`: the applied-request table is
  /// cleared (the crash destroyed every side effect it described, so
  /// re-execution is the correct response to a redelivery), the lease is
  /// void, and requests SENT before the restart are refused — a delayed
  /// pre-crash floater must not execute against the fresh incarnation.
  void Restart(EpochSeconds now);

  /// True while the agent holds a live lease (or was never
  /// lease-enforced).
  bool LeaseValid(EpochSeconds now) const {
    return !lease_enforced_ || now <= lease_valid_until_;
  }

  const Stats& stats() const { return stats_; }
  EndpointId id() const { return id_; }

 private:
  void HandleMessage(const Envelope& env, EpochSeconds now);
  void Reply(const Envelope& request, MessageType type, StatusCode code,
             uint32_t flags, EpochSeconds now);
  void Quiesce(EpochSeconds now);

  EndpointId id_;
  Transport* transport_;
  Executor resume_;
  QuiesceHandler quiesce_;
  uint64_t fence_epoch_ = 0;
  bool down_ = false;
  /// Becomes true at the first nonzero-ttl renewal; from then on a valid
  /// lease is required to execute work.
  bool lease_enforced_ = false;
  EpochSeconds lease_valid_until_ = 0;
  /// Requests sent at or before this instant are refused: they predate a
  /// self-quiesce or restart, and their world no longer exists.
  EpochSeconds refuse_before_ = 0;
  /// Request ids whose execution had a side effect (kept only when the
  /// transport can redeliver).
  std::unordered_set<uint64_t> applied_;
  Stats stats_;
};

}  // namespace prorp::net

#endif  // PRORP_NET_NODE_AGENT_H_
