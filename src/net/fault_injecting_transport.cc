#include "net/fault_injecting_transport.h"

#include <algorithm>

namespace prorp::net {

FaultInjectingTransport::FaultInjectingTransport(faults::FaultPlan* plan,
                                                 Options options)
    : plan_(plan), options_(options) {}

faults::FaultOp FaultInjectingTransport::OpFor(MessageType type) {
  switch (type) {
    case MessageType::kResumeRequest:
      return faults::FaultOp::kMsgRequest;
    case MessageType::kAck:
    case MessageType::kNack:
      return faults::FaultOp::kMsgAck;
    case MessageType::kLeaseRenew:
    case MessageType::kLeaseGrant:
      return faults::FaultOp::kMsgLease;
  }
  return faults::FaultOp::kMsgRequest;
}

bool FaultInjectingTransport::Partitioned(const Envelope& env) const {
  const bool to_node = env.src == kControlPlaneEndpoint;
  const EndpointId node = to_node ? env.dst : env.src;
  for (const PartitionSpec& p : partitions_) {
    if (env.sent_at < p.from || env.sent_at >= p.until) continue;
    if (node < p.first_node || node > p.last_node) continue;
    switch (p.direction) {
      case PartitionSpec::Direction::kBoth:
        return true;
      case PartitionSpec::Direction::kToNodes:
        if (to_node) return true;
        break;
      case PartitionSpec::Direction::kFromNodes:
        if (!to_node) return true;
        break;
    }
  }
  return false;
}

DurationSeconds FaultInjectingTransport::SlowDelay(const Envelope& env) const {
  if (env.src == kControlPlaneEndpoint) return 0;  // node-sent traffic only
  DurationSeconds delay = 0;
  for (const SlowNodeSpec& s : slow_nodes_) {
    if (env.src != s.node) continue;
    if (env.sent_at < s.from || env.sent_at >= s.until) continue;
    delay = std::max(delay, s.delay);
  }
  return delay;
}

void FaultInjectingTransport::Send(Envelope env) {
  ++stats_.sent;
  if (Partitioned(env)) {
    ++stats_.partitioned;
    return;
  }
  if (DurationSeconds slow = SlowDelay(env); slow > 0) {
    ++stats_.delayed;
    delayed_.push_back(Delayed{env.sent_at + slow, ++seq_, env});
    std::push_heap(delayed_.begin(), delayed_.end(), Later);
    return;
  }
  if (plan_ != nullptr) {
    if (auto d = plan_->Next(OpFor(env.type))) {
      switch (d->kind) {
        case faults::FaultKind::kMsgDrop:
          ++stats_.dropped;
          return;
        case faults::FaultKind::kMsgDuplicate:
          ++stats_.duplicated;
          DeliverNow(env, env.sent_at);
          DeliverNow(env, env.sent_at);
          return;
        case faults::FaultKind::kMsgDelay: {
          DurationSeconds span = options_.delay_max >= options_.delay_min
                                     ? options_.delay_max - options_.delay_min
                                     : 0;
          DurationSeconds delay =
              options_.delay_min +
              static_cast<DurationSeconds>(
                  d->arg % static_cast<uint64_t>(span + 1));
          ++stats_.delayed;
          delayed_.push_back(Delayed{env.sent_at + delay, ++seq_, env});
          std::push_heap(delayed_.begin(), delayed_.end(), Later);
          return;
        }
        case faults::FaultKind::kIoError:
        case faults::FaultKind::kTornWrite:
        case faults::FaultKind::kBitFlip:
        case faults::FaultKind::kDiskFull:
          break;  // disk-only kinds; meaningless at a message site
      }
    }
  }
  DeliverNow(env, env.sent_at);
}

void FaultInjectingTransport::DeliverDue(EpochSeconds now) {
  while (!delayed_.empty() && delayed_.front().at <= now) {
    std::pop_heap(delayed_.begin(), delayed_.end(), Later);
    Delayed d = delayed_.back();
    delayed_.pop_back();
    DeliverNow(d.env, std::max(d.at, d.env.sent_at));
  }
}

}  // namespace prorp::net
