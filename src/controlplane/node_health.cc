#include "controlplane/node_health.h"

#include <algorithm>

namespace prorp::controlplane {

void NodeHealthTracker::Register(uint32_t node, EpochSeconds now) {
  Ensure(node, now);
}

NodeHealthTracker::NodeState& NodeHealthTracker::Ensure(uint32_t node,
                                                        EpochSeconds now) {
  auto [it, inserted] = nodes_.try_emplace(node);
  if (inserted) it->second.last_grant_at = now;
  return it->second;
}

void NodeHealthTracker::PushLatency(NodeState& st, DurationSeconds latency) {
  st.ring[static_cast<size_t>(st.ring_pos)] = latency;
  st.ring_pos = (st.ring_pos + 1) % kRingSize;
  st.ring_n = std::min(st.ring_n + 1, kRingSize);
}

DurationSeconds NodeHealthTracker::RingP99(const NodeState& st) {
  if (st.ring_n == 0) return 0;
  std::array<DurationSeconds, kRingSize> sorted = st.ring;
  const int n = st.ring_n;
  // Exact p99 over the occupied prefix-equivalent window: rank
  // ceil(0.99 * n) in 1-based terms.
  int rank = (99 * n + 99) / 100;  // ceil(0.99 * n)
  rank = std::clamp(rank, 1, n);
  std::nth_element(sorted.begin(), sorted.begin() + (rank - 1),
                   sorted.begin() + n);
  return sorted[static_cast<size_t>(rank - 1)];
}

bool NodeHealthTracker::Slow(const NodeState& st) const {
  return options_.slow_p99_threshold > 0 &&
         st.ring_n >= options_.min_latency_samples &&
         RingP99(st) > options_.slow_p99_threshold;
}

void NodeHealthTracker::OnRenewalSent(uint32_t node, EpochSeconds sent_at,
                                      DurationSeconds ttl) {
  NodeState& st = Ensure(node, sent_at);
  if (ttl > 0) {
    st.fence_safe_at = std::max(st.fence_safe_at, sent_at + ttl);
  }
}

void NodeHealthTracker::OnLeaseGrant(uint32_t node, DurationSeconds latency,
                                     EpochSeconds now) {
  NodeState& st = Ensure(node, now);
  st.last_grant_at = now;
  PushLatency(st, latency);
  if (st.health == NodeHealth::kSuspect && !Slow(st)) {
    st.health = NodeHealth::kHealthy;
    st.gray = false;
    st.suspected_at = 0;
    ++stats_.recoveries;
  } else if (st.health == NodeHealth::kDead &&
             now >= st.died_at + options_.rejoin_after && !Slow(st)) {
    // The node came back and served its cooldown: re-admit.  Its old
    // fence-safe bound is history (the lease lapsed long ago); real
    // renewals restart from the dispatcher's next tick.
    st.health = NodeHealth::kHealthy;
    st.gray = false;
    st.suspected_at = 0;
    ++stats_.rejoins;
  }
}

void NodeHealthTracker::OnAckLatency(uint32_t node, DurationSeconds latency,
                                     EpochSeconds now) {
  NodeState& st = Ensure(node, now);
  PushLatency(st, latency);
}

void NodeHealthTracker::AdvanceTime(EpochSeconds now) {
  for (auto& [node, st] : nodes_) {
    switch (st.health) {
      case NodeHealth::kHealthy:
        if (now - st.last_grant_at > options_.suspect_after) {
          st.health = NodeHealth::kSuspect;
          st.gray = false;
          st.suspected_at = now;
          ++stats_.suspects_missed_grants;
        } else if (Slow(st)) {
          st.health = NodeHealth::kSuspect;
          st.gray = true;
          st.suspected_at = now;
          ++stats_.suspects_gray_failure;
        }
        break;
      case NodeHealth::kSuspect:
        // Death requires BOTH bounds: past the fence-safe time (the node
        // can no longer believe it holds a lease, so re-placement cannot
        // double-live) and a dwell so a one-tick blip does not fail the
        // node over.
        if (now > st.fence_safe_at &&
            now - st.suspected_at >= options_.dead_grace) {
          st.health = NodeHealth::kDead;
          st.died_at = now;
          st.ring_n = 0;
          st.ring_pos = 0;
          ++stats_.deaths;
          newly_dead_.push_back(node);
        }
        break;
      case NodeHealth::kDead:
        break;
    }
  }
}

NodeHealth NodeHealthTracker::health(uint32_t node) const {
  auto it = nodes_.find(node);
  return it == nodes_.end() ? NodeHealth::kHealthy : it->second.health;
}

std::vector<uint32_t> NodeHealthTracker::TakeNewlyDead() {
  std::vector<uint32_t> out;
  out.swap(newly_dead_);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace prorp::controlplane
