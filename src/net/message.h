#ifndef PRORP_NET_MESSAGE_H_
#define PRORP_NET_MESSAGE_H_

#include <cstdint>
#include <string_view>

#include "common/config.h"
#include "common/status.h"
#include "telemetry/events.h"

namespace prorp::net {

using telemetry::DbId;

/// Addressable party on the control-plane <-> node transport.  The
/// management service owns endpoint 0; SQL nodes take 1..N.
using EndpointId = uint32_t;

inline constexpr EndpointId kControlPlaneEndpoint = 0;

/// Typed messages of the resume protocol (DESIGN.md section 11).  Pause
/// is node-local, so no pause request crosses the wire.
enum class MessageType : uint8_t {
  kResumeRequest = 0,  ///< plane -> node: run one resume-workflow attempt
  kAck,                ///< node -> plane: request executed, OK
  kNack,               ///< node -> plane: request refused/failed (see code)
  kLeaseRenew,         ///< plane -> node: liveness/epoch advertisement
  kLeaseGrant,         ///< node -> plane: lease renewal acknowledged
};

// Envelope flag bits (replies only).
/// The node had already executed this request id successfully; the reply
/// is an OK ack and no side effect ran (redelivery dedup).
inline constexpr uint32_t kMfDuplicateDelivery = 1u << 0;
/// The request's epoch was below the node's fence: a predecessor
/// incarnation's late message, rejected without executing anything.
inline constexpr uint32_t kMfStaleEpoch = 1u << 1;
/// The node's lease had lapsed (or the request predates a self-quiesce):
/// the agent is fenced and refused the request without executing it, so
/// the plane can safely re-place the database elsewhere.
inline constexpr uint32_t kMfLeaseExpired = 1u << 2;

/// One message on the wire.  Flat POD-style struct: the in-process
/// transports pass it by value, and a future serialized transport can
/// encode it without chasing pointers.  Request and reply share the
/// layout; unused fields stay zero.
struct Envelope {
  MessageType type = MessageType::kResumeRequest;
  EndpointId src = kControlPlaneEndpoint;
  EndpointId dst = kControlPlaneEndpoint;
  /// Dispatch identity: (epoch << 32 | seq), assigned by the management
  /// service.  Retransmissions reuse it; a hedge gets a fresh one.  The
  /// node's applied-request table dedups on it.
  uint64_t request_id = 0;
  /// Control-plane incarnation the request was sent under; replies echo
  /// the request's epoch so a recovered plane can recognize its
  /// predecessor's stragglers.
  uint64_t epoch = 0;
  EpochSeconds sent_at = 0;

  // Request payload (mirrors controlplane::ResumeAttempt).
  DbId db = 0;
  uint8_t cls = 0;
  int32_t attempt = 1;
  uint8_t node_offset = 0;
  bool hedge = false;
  EpochSeconds enqueued_at = 0;

  /// Lease-renewal payload: how long past `sent_at` the node may keep
  /// accepting work.  Zero means "probe" — the renewal solicits a grant
  /// (liveness evidence) without extending the node's lease, which is how
  /// the plane lets a suspect node's lease run out at a known bound.
  /// Replies echo the transmission's `sent_at` in `enqueued_at`, so the
  /// plane can measure per-transmission round-trip latency.
  DurationSeconds lease_ttl = 0;

  // Reply payload.
  StatusCode code = StatusCode::kOk;
  uint32_t flags = 0;
};

/// Rebuilds a Status from a wire code (the reply's `code` field).  kOk
/// maps to Status::OK() and drops the message.
Status StatusFromCode(StatusCode code, std::string_view msg);

}  // namespace prorp::net

#endif  // PRORP_NET_MESSAGE_H_
