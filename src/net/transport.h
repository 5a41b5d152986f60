#ifndef PRORP_NET_TRANSPORT_H_
#define PRORP_NET_TRANSPORT_H_

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "net/message.h"

namespace prorp::net {

/// Delivery counters of one transport instance.
struct TransportStats {
  uint64_t sent = 0;         ///< Send() calls
  uint64_t delivered = 0;    ///< handler invocations (duplicates count each)
  uint64_t dropped = 0;      ///< lost to an injected drop
  uint64_t duplicated = 0;   ///< delivered twice by an injected duplicate
  uint64_t delayed = 0;      ///< deferred on the simulated clock
  uint64_t partitioned = 0;  ///< lost to an active partition
  uint64_t unroutable = 0;   ///< destination endpoint not registered
};

/// Message channel between the control plane and the nodes.  Single
/// threaded, virtual-clock driven, like the simulator it serves: Send()
/// may deliver inline (recursing into the destination handler) or defer;
/// deferred messages surface when the driver calls DeliverDue(now).
///
/// Handlers receive the delivery time alongside the envelope — for inline
/// delivery that is the send time, for a delayed message the virtual
/// instant it surfaced.
class Transport {
 public:
  using Handler = std::function<void(const Envelope&, EpochSeconds now)>;

  virtual ~Transport() = default;

  void RegisterEndpoint(EndpointId id, Handler handler) {
    endpoints_[id] = std::move(handler);
  }

  /// Hands one message to the transport.  `env.sent_at` must carry the
  /// current virtual time.
  virtual void Send(Envelope env) = 0;

  /// Delivers every deferred message whose due time is <= now, in
  /// (due time, send order) order.  Base transports defer nothing.
  virtual void DeliverDue(EpochSeconds now) { (void)now; }

  /// True when no message is waiting inside the transport.
  virtual bool Idle() const { return true; }

  /// True when one request can reach its endpoint more than once
  /// (duplicated, or delivered after a retransmission was sent), so the
  /// receiving node has to suppress the repeat.
  virtual bool CanRedeliver() const { return true; }

  const TransportStats& stats() const { return stats_; }

 protected:
  /// Invokes the destination handler (or counts the message unroutable).
  void DeliverNow(const Envelope& env, EpochSeconds now) {
    auto it = endpoints_.find(env.dst);
    if (it == endpoints_.end()) {
      ++stats_.unroutable;
      return;
    }
    ++stats_.delivered;
    it->second(env, now);
  }

  TransportStats stats_;
  std::unordered_map<EndpointId, Handler> endpoints_;
};

/// The fault-free transport: every Send delivers inline, synchronously,
/// in order.  Every simulator pre-warm crosses it; the runs that called
/// the node directly before are pinned by digest (transport_sim_test.cc).
/// It never redelivers: each Send is delivered once, the reply resolves
/// the dispatch before Send returns (so it is never retransmitted), a
/// crashed node executes nothing, and a retry carries a fresh request id.
class InProcessTransport : public Transport {
 public:
  void Send(Envelope env) override {
    ++stats_.sent;
    DeliverNow(env, env.sent_at);
  }
  bool CanRedeliver() const override { return false; }
};

}  // namespace prorp::net

#endif  // PRORP_NET_TRANSPORT_H_
