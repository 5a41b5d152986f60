#ifndef PRORP_NET_DISPATCHER_H_
#define PRORP_NET_DISPATCHER_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <unordered_map>

#include "controlplane/management_service.h"
#include "controlplane/node_health.h"
#include "net/transport.h"

namespace prorp::net {

/// Control-plane side of the transport: turns the management service's
/// resume callback into a ResumeRequest message, matches acks back to
/// dispatches, retransmits unanswered requests, and reports exhausted
/// ones as dispatch timeouts (unacked — NOT failed; the outcome is
/// unknown and recovery reconciles it against the node).
///
/// Over a fault-free inline transport every Send is answered before it
/// returns, so DispatchResume resolves synchronously with the node's
/// verdict — byte-for-byte the legacy direct-call behavior.  When the ack
/// is deferred (delayed, dropped, partitioned), DispatchResume returns
/// Status::Pending and the service parks the workflow until
/// OnDispatchAck / OnDispatchTimeout.
class TransportDispatcher {
 public:
  /// Total transmissions (first send + retransmissions) before a
  /// dispatch is reported timed out.
  static constexpr int kMaxTransmissions = 4;
  /// Node endpoints are [kFirstNode, kFirstNode + num_nodes); endpoint 0
  /// is the control plane (kControlPlaneEndpoint).
  static constexpr EndpointId kFirstNode = 1;

  struct Options {
    /// Resend an unanswered request after this long.
    DurationSeconds retransmit_after = 30;
    /// Period of lease renewals to every node (0 disables).  Leases are
    /// liveness/epoch advertisements; with a nonzero lease_ttl (and a
    /// health tracker attached) they become the failure detector's
    /// heartbeat and the nodes' work-acceptance fence.
    DurationSeconds lease_interval = 0;
    /// TTL carried on real renewals (0 keeps leases telemetry-only: the
    /// nodes never become lease-enforced — the pre-failover behavior).
    /// When a health tracker is attached, suspect and dead nodes get
    /// ttl=0 probes instead, so their fence-safe bound stops advancing.
    DurationSeconds lease_ttl = 0;
    /// Nodes in the lease fan-out, from kFirstNode.
    int num_nodes = 1;
  };

  /// Maps an attempt to its destination endpoint (home node vs hedge
  /// target).  Null routes everything to kFirstNode.
  using NodeResolver =
      std::function<EndpointId(const controlplane::ResumeAttempt&)>;

  struct Stats {
    uint64_t dispatched = 0;       ///< resume requests sent (first send)
    uint64_t inline_acked = 0;     ///< resolved synchronously inside Send
    uint64_t async_acked = 0;      ///< resolved later via the transport
    uint64_t retransmissions = 0;
    uint64_t timeouts = 0;         ///< budgets exhausted -> OnDispatchTimeout
    uint64_t late_acks = 0;        ///< ack for a no-longer-outstanding id
    uint64_t stale_epoch_acks = 0; ///< ack from a previous incarnation
    uint64_t lease_renewals = 0;
    uint64_t lease_probes = 0;  ///< ttl=0 renewals to non-healthy nodes
    uint64_t lease_grants = 0;
  };

  TransportDispatcher(Transport* transport, Options options,
                      NodeResolver resolver = nullptr);

  /// (Re)points the dispatcher at a service incarnation.  Clears every
  /// outstanding dispatch: the old incarnation's requests are dead — any
  /// straggler acks they still produce land in the stale/late counters.
  void set_service(controlplane::ManagementService* service);

  /// Attaches the failure detector: grants and ack latencies are fed to
  /// it per node, lease fan-out consults it (healthy nodes get real
  /// renewals, others ttl=0 probes), and Tick advances its clock.
  /// nullptr detaches.
  void set_health_tracker(controlplane::NodeHealthTracker* tracker);

  /// The management service's resume callback.  Returns the node's
  /// verdict when the ack arrived inline, Status::Pending otherwise.
  Status DispatchResume(const controlplane::ResumeAttempt& attempt,
                        EpochSeconds now);

  /// Drives time forward: surfaces due deferred messages, retransmits
  /// unanswered requests, reports exhausted ones, renews leases.
  void Tick(EpochSeconds now);

  bool Idle() const { return outstanding_.empty(); }
  size_t outstanding() const { return outstanding_.size(); }
  const Stats& stats() const { return stats_; }

  /// Grants received from one node (the aggregate Stats::lease_grants,
  /// disaggregated by granting endpoint).
  uint64_t lease_grants_from(EndpointId node) const {
    auto it = lease_grants_by_node_.find(node);
    return it == lease_grants_by_node_.end() ? 0 : it->second;
  }

 private:
  void HandleReply(const Envelope& env, EpochSeconds now);

  Transport* transport_;
  Options options_;
  NodeResolver resolver_;
  controlplane::ManagementService* service_ = nullptr;
  controlplane::NodeHealthTracker* health_ = nullptr;
  bool health_registered_ = false;
  /// Per-node grant counts (ordered for deterministic inspection).
  std::map<EndpointId, uint64_t> lease_grants_by_node_;

  struct Outstanding {
    Envelope request;       // retransmissions resend this verbatim
    EpochSeconds last_sent = 0;
    int transmissions = 1;
  };
  std::unordered_map<uint64_t, Outstanding> outstanding_;

  // Inline resolution: when a Send's ack arrives before Send returns,
  // the reply handler stashes the verdict here instead of calling
  // OnDispatchAck, and DispatchResume returns it synchronously.
  bool in_dispatch_ = false;
  uint64_t inline_rid_ = 0;
  std::optional<Status> inline_result_;

  EpochSeconds next_lease_at_ = 0;
  Stats stats_;
};

}  // namespace prorp::net

#endif  // PRORP_NET_DISPATCHER_H_
