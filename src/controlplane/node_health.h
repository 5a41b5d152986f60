#ifndef PRORP_CONTROLPLANE_NODE_HEALTH_H_
#define PRORP_CONTROLPLANE_NODE_HEALTH_H_

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "common/config.h"

namespace prorp::controlplane {

/// Health verdict the tracker holds for one node.
enum class NodeHealth : uint8_t {
  kHealthy = 0,  ///< grants flowing, latency acceptable: lease is extended
  kSuspect,      ///< missed grants or gray failure: probes only, lease drains
  kDead,         ///< declared past the fence-safe bound: failover may run
};

/// Lease-driven failure detector for the node pool (DESIGN.md section 12).
///
/// The dispatcher feeds it three event streams: renewals sent (with their
/// ttl), grants received (per node, with round-trip latency), and ack
/// latencies of workflow replies.  From those it runs a per-node
/// healthy -> suspect -> dead state machine:
///
///  * healthy -> suspect when no grant has arrived for `suspect_after`
///    seconds, or — gray failure — when the node's p99 reply latency
///    exceeds `slow_p99_threshold` even though grants still flow;
///  * suspect -> healthy when a grant arrives and the latency score is
///    back under the bar;
///  * suspect -> dead only after BOTH the node's fence-safe time has
///    passed AND the suspicion has dwelled for `dead_grace` seconds.
///
/// The fence-safe time is the pivot of the split-brain argument: it is
/// max over every real (nonzero-ttl) renewal of sent_at + ttl — the
/// latest instant at which the node could still believe it holds a
/// lease.  While a node is suspect the plane sends only ttl=0 probes, so
/// fence-safe stops advancing; a zombie that keeps receiving probes (but
/// whose replies are lost) still self-fences by that bound.  Because
/// death is declared strictly after fence-safe, a death declaration IS
/// the re-placement license: no surviving side effect of the dead node
/// can race the databases the failover engine moves.
///
/// Everything is virtual-clock driven and allocation-stable: per-node
/// latency scoring uses a fixed 64-sample ring and an exact
/// nth_element p99, so a run is bit-reproducible.
class NodeHealthTracker {
 public:
  struct Options {
    /// TTL the plane puts on real renewals (mirrors the dispatcher's
    /// lease_ttl; used only for documentation/validation here — the
    /// authoritative per-renewal value arrives via OnRenewalSent).
    DurationSeconds lease_ttl = 240;
    /// Grant-silence gap that demotes healthy -> suspect.
    DurationSeconds suspect_after = 150;
    /// Extra dwell past the fence-safe time before declaring death.
    DurationSeconds dead_grace = 60;
    /// Cooldown before a dead node that grants again is re-admitted.
    DurationSeconds rejoin_after = 300;
    /// Gray-failure bar: p99 reply latency above this demotes a node
    /// even while its grants keep flowing.  Zero disables the score.
    DurationSeconds slow_p99_threshold = 0;
    /// Minimum ring occupancy before the p99 score is trusted.
    int min_latency_samples = 16;
  };

  struct Stats {
    uint64_t suspects_missed_grants = 0;
    uint64_t suspects_gray_failure = 0;
    uint64_t recoveries = 0;  ///< suspect -> healthy
    uint64_t deaths = 0;
    uint64_t rejoins = 0;  ///< dead -> healthy after cooldown
  };

  NodeHealthTracker() : NodeHealthTracker(Options()) {}
  explicit NodeHealthTracker(Options options) : options_(options) {}

  /// Starts tracking `node` as healthy with its grant clock at `now`
  /// (so a fresh node is not instantly suspect).  Idempotent.
  void Register(uint32_t node, EpochSeconds now);

  /// A renewal left the plane for `node`.  Real renewals (ttl > 0)
  /// advance the node's fence-safe time; probes do not.
  void OnRenewalSent(uint32_t node, EpochSeconds sent_at,
                     DurationSeconds ttl);

  /// A grant arrived from `node` with the given round-trip latency.
  void OnLeaseGrant(uint32_t node, DurationSeconds latency,
                    EpochSeconds now);

  /// A workflow reply (ack or nack) arrived from `node`.
  void OnAckLatency(uint32_t node, DurationSeconds latency,
                    EpochSeconds now);

  /// Runs the time-based transitions (suspicion, death declarations).
  void AdvanceTime(EpochSeconds now);

  NodeHealth health(uint32_t node) const;

  /// True when the plane should send `node` a real renewal; suspect and
  /// dead nodes get ttl=0 probes so their fence-safe bound stays put.
  bool ShouldExtendLease(uint32_t node) const {
    return health(node) == NodeHealth::kHealthy;
  }

  /// Drains the nodes declared dead since the last call (ascending node
  /// id) — the failover engine's work feed.
  std::vector<uint32_t> TakeNewlyDead();

  const Stats& stats() const { return stats_; }

 private:
  static constexpr int kRingSize = 64;

  struct NodeState {
    NodeHealth health = NodeHealth::kHealthy;
    bool gray = false;  ///< current suspicion came from the latency score
    EpochSeconds last_grant_at = 0;
    EpochSeconds fence_safe_at = 0;
    EpochSeconds suspected_at = 0;
    EpochSeconds died_at = 0;
    std::array<DurationSeconds, kRingSize> ring{};
    int ring_n = 0;
    int ring_pos = 0;
  };

  NodeState& Ensure(uint32_t node, EpochSeconds now);
  void PushLatency(NodeState& st, DurationSeconds latency);
  bool Slow(const NodeState& st) const;
  static DurationSeconds RingP99(const NodeState& st);

  Options options_;
  /// Ordered map: AdvanceTime iterates in ascending node id, so death
  /// declarations (and thus failover order) are deterministic.
  std::map<uint32_t, NodeState> nodes_;
  std::vector<uint32_t> newly_dead_;
  Stats stats_;
};

}  // namespace prorp::controlplane

#endif  // PRORP_CONTROLPLANE_NODE_HEALTH_H_
