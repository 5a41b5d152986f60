// FNV-1a 64-bit hashing shared by the golden-digest tests.  Every value
// is hashed as its little-endian bytes (a double as its bit pattern), so
// a digest pins exact values, not approximations.  The pinned constants
// of the digest tests were computed with this byte sequence; any change
// here moves all of them.

#ifndef PRORP_TESTS_GOLDEN_DIGEST_H_
#define PRORP_TESTS_GOLDEN_DIGEST_H_

#include <cstdint>
#include <cstring>
#include <string>

#include "common/stats.h"
#include "controlplane/management_service.h"
#include "telemetry/histogram.h"

namespace prorp::golden {

class Fnv1a {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) AddByte((v >> (8 * i)) & 0xff);
  }
  void Add(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    Add(bits);
  }
  /// The length, then each byte.
  void AddBytes(const std::string& bytes) {
    Add(static_cast<uint64_t>(bytes.size()));
    for (unsigned char c : bytes) AddByte(c);
  }
  /// count + p50 + p99.
  void Add(const Summary& s) {
    Add(static_cast<uint64_t>(s.count()));
    Add(s.Percentile(0.50));
    Add(s.Percentile(0.99));
  }
  void Add(const telemetry::Histogram& hist) {
    for (uint64_t b : hist.buckets()) Add(b);
    Add(hist.count());
    Add(static_cast<uint64_t>(hist.max()));
    Add(hist.sum());
  }
  uint64_t value() const { return h_; }

 private:
  void AddByte(uint64_t byte) {
    h_ ^= byte;
    h_ *= 0x100000001b3ULL;
  }

  uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Every DiagnosticsReport field: the scalar counters, each class's
/// counters, then the queue-wait and in-flight histograms.
inline void AddDiagnostics(Fnv1a& h,
                           const controlplane::DiagnosticsReport& d) {
  for (uint64_t v :
       {d.observed_iterations, static_cast<uint64_t>(d.max_queue_depth),
        d.stuck_workflows, d.mitigated, d.skipped_state_changed,
        d.failed_then_skipped, d.failed_then_shed, d.incidents,
        d.backoff_retries_scheduled, d.backoff_delay_seconds_total,
        d.shed_resumes, d.breaker_opens, d.breaker_state_changes,
        d.storms_detected, d.slow_start_ticks, d.quota_deferrals,
        d.catch_up_enqueued, d.deleted_while_queued,
        static_cast<uint64_t>(d.max_brownout_level), d.unacked_dispatches,
        d.dispatch_timeouts, d.late_acks, d.stale_epoch_acks,
        d.node_failovers, d.failover_requeues}) {
    h.Add(v);
  }
  for (const controlplane::ClassDiagnostics& c : d.per_class) {
    for (uint64_t v :
         {c.enqueued, c.resumed, c.shed_admission, c.shed_evicted, c.stuck,
          c.mitigated, c.incidents, c.skipped_state_changed,
          c.failed_then_skipped, c.failed_then_shed, c.deadline_breaches,
          c.hedged, c.hedge_wins}) {
      h.Add(v);
    }
  }
  h.Add(d.queue_wait);
  h.Add(d.in_flight_duration);
}

}  // namespace prorp::golden

#endif  // PRORP_TESTS_GOLDEN_DIGEST_H_
