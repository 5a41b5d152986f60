#ifndef PRORP_FAULTS_FAULT_PLAN_H_
#define PRORP_FAULTS_FAULT_PLAN_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/random.h"

namespace prorp::faults {

/// Instrumented operation sites a FaultPlan can fire at.  Each site calls
/// FaultPlan::Next(op) exactly once per operation, so scripted "fail the
/// Nth op" triggers are exact.
enum class FaultOp : uint8_t {
  kDiskRead = 0,
  kDiskWrite,
  kDiskAllocate,
  kWalAppend,
  kWalSync,
  // Message-level sites (the control-plane <-> node transport,
  // DESIGN.md section 11).  One Next() per message send, keyed by the
  // message's direction/class so a plan can torture requests and acks
  // independently.
  kMsgRequest,  ///< plane -> node resume requests
  kMsgAck,      ///< node -> plane replies (ack/nack)
  kMsgLease,    ///< lease renewals/grants, either direction
};

inline constexpr int kNumFaultOps = 8;

/// What kind of fault to inject when a trigger fires.
enum class FaultKind : uint8_t {
  /// The operation fails with Status::IoError; no bytes reach the medium.
  kIoError = 0,
  /// A write persists only a prefix of the intended bytes (torn write).
  kTornWrite,
  /// A single bit of the payload is flipped (silent medium corruption).
  kBitFlip,
  /// The medium is out of space (ENOSPC): a write persists only a prefix
  /// before failing, and the operation must fail-stop cleanly — roll the
  /// file back, acknowledge nothing.  Unlike kTornWrite the caller gets a
  /// distinguishable disk-full error, and unlike kIoError some bytes may
  /// have reached the medium before the failure.
  kDiskFull,
  // Message-level kinds, meaningful only at the kMsg* sites (the
  // FaultInjectingTransport decorator).  Disk/WAL sites ignore them.
  /// The message is silently lost; the sender sees nothing.
  kMsgDrop,
  /// The message is delivered twice (at-least-once redelivery).
  kMsgDuplicate,
  /// Delivery is deferred on the simulated clock by an interval derived
  /// from the decision arg; independently delayed messages overtake each
  /// other, so reordering is emergent rather than a separate kind.
  kMsgDelay,
};

/// A fired trigger: the kind plus a deterministic 64-bit argument the
/// injection site interprets (torn-write cut offset, bit index, ...).
struct FaultDecision {
  FaultKind kind = FaultKind::kIoError;
  uint64_t arg = 0;
};

/// Deterministic fault schedule driving every injection site (the
/// FaultInjectingDiskManager decorator and the WAL's append/sync hooks).
///
/// Two trigger forms compose:
///  * scripted — fire on the Nth occurrence (1-based) of an operation,
///    for pinpoint regression tests ("fail the 3rd WAL append");
///  * seeded-probabilistic — fire with probability p per occurrence, with
///    all randomness drawn from the plan's seed so a (seed, plan) pair
///    replays bit-identically.
///
/// Not internally synchronized: like the storage engine it instruments,
/// a plan belongs to one single-writer stack.
class FaultPlan {
 public:
  explicit FaultPlan(uint64_t seed) : rng_(seed) {}

  /// Fires `kind` on the `nth` (1-based) future occurrence of `op`.
  /// Multiple scripted triggers on the same op are allowed.
  void FailNth(FaultOp op, uint64_t nth, FaultKind kind);

  /// Like FailNth, but with a fixed decision argument instead of a seeded
  /// draw.  The bit-flip torture sweep uses this to hit an exact bit
  /// position (page-header bytes, sampled payload bits).
  void FailNthWithArg(FaultOp op, uint64_t nth, FaultKind kind, uint64_t arg);

  /// Fires `kind` with probability `p` on every occurrence of `op`.
  /// Probabilistic triggers stack: each occurrence evaluates every
  /// registered trigger (one seeded draw apiece, so the stream position is
  /// a function of the op sequence and the plan program alone) and the
  /// first one to fire, in registration order, decides the fault — a
  /// mixed-fault wire is just several FailWithProbability calls.
  void FailWithProbability(FaultOp op, double p, FaultKind kind);

  /// Called by an injection site once per operation.  Advances the op
  /// counter and returns the decision when a trigger fires.
  std::optional<FaultDecision> Next(FaultOp op);

  /// Operations observed so far at `op`.
  uint64_t ops_seen(FaultOp op) const {
    return counters_[static_cast<size_t>(op)];
  }

  /// Total faults fired so far (the telemetry "injected faults" counter).
  uint64_t injected() const { return injected_; }

 private:
  struct ScriptedTrigger {
    uint64_t nth = 0;
    FaultKind kind = FaultKind::kIoError;
    std::optional<uint64_t> arg;  // fixed decision arg; seeded draw if unset
  };
  struct ProbabilisticTrigger {
    double p = 0;
    FaultKind kind = FaultKind::kIoError;
  };

  Rng rng_;
  uint64_t counters_[kNumFaultOps] = {};
  std::vector<ScriptedTrigger> scripted_[kNumFaultOps];
  std::vector<ProbabilisticTrigger> probabilistic_[kNumFaultOps];
  uint64_t injected_ = 0;
};

}  // namespace prorp::faults

#endif  // PRORP_FAULTS_FAULT_PLAN_H_
