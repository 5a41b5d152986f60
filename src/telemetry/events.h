#ifndef PRORP_TELEMETRY_EVENTS_H_
#define PRORP_TELEMETRY_EVENTS_H_

#include <array>
#include <cstdint>
#include <vector>

#include "common/time_util.h"

namespace prorp::telemetry {

/// Identifier of a simulated serverless database within a region.
using DbId = uint32_t;

/// Telemetry event kinds emitted by the online components (Section 9.1:
/// "telemetry is emitted by the customer activity tracking, the prediction
/// of next activity, and the proactive resume operation").
enum class EventKind : uint8_t {
  kLoginAvailable,   // first login after idle, resources were allocated
  kLoginReactive,    // first login after idle, reactive resume needed
  kLogout,           // customer activity ended
  kLogicalPause,     // resources logically paused (idle, unbilled)
  kPhysicalPause,    // resources reclaimed
  kProactiveResume,  // control plane pre-warmed the database
  kForcedEviction,   // capacity pressure reclaimed a logical pause
  kPrediction,       // next-activity prediction computed
};

/// Number of EventKind values (array-index bound for counters).
inline constexpr size_t kNumEventKinds = 8;

struct FleetEvent {
  EpochSeconds time = 0;
  DbId db = 0;
  EventKind kind = EventKind::kLogout;
};

/// Append-only in-memory event log standing in for the Cosmos long-term
/// telemetry store.
class Recorder {
 public:
  void Record(EpochSeconds time, DbId db, EventKind kind) {
    events_.push_back({time, db, kind});
  }

  const std::vector<FleetEvent>& events() const { return events_; }
  size_t size() const { return events_.size(); }

 private:
  std::vector<FleetEvent> events_;
};

/// Fixed-size running event counters: the streaming replacement for
/// buffering every FleetEvent when only KPIs are needed.  O(1) memory
/// however long the run.
class EventCounts {
 public:
  void Add(EventKind kind) { ++counts_[static_cast<size_t>(kind)]; }

  uint64_t Count(EventKind kind) const {
    return counts_[static_cast<size_t>(kind)];
  }

  uint64_t total() const {
    uint64_t sum = 0;
    for (uint64_t c : counts_) sum += c;
    return sum;
  }

  /// Counters equivalent to a buffered recorder (for differential tests
  /// between full and streaming telemetry modes).
  static EventCounts FromRecorder(const Recorder& recorder) {
    EventCounts counts;
    for (const FleetEvent& e : recorder.events()) counts.Add(e.kind);
    return counts;
  }

 private:
  std::array<uint64_t, kNumEventKinds> counts_{};
};

}  // namespace prorp::telemetry

#endif  // PRORP_TELEMETRY_EVENTS_H_
