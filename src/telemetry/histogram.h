#ifndef PRORP_TELEMETRY_HISTOGRAM_H_
#define PRORP_TELEMETRY_HISTOGRAM_H_

#include <array>
#include <cstddef>
#include <cstdint>

namespace prorp::telemetry {

/// Fixed-footprint log2-bucketed histogram of non-negative integer
/// samples (latencies and waits in seconds).  Bucket 0 holds the value 0;
/// bucket b >= 1 holds [2^(b-1), 2^b).  Unlike Summary it never grows
/// with the sample count, so it can sit inside DiagnosticsReport and be
/// bumped on every workflow without memory concerns; the price is that
/// the distribution is known only to bucket resolution (count, max and
/// sum stay exact).
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 40;

  void Add(int64_t value);

  uint64_t count() const { return count_; }
  int64_t max() const { return max_; }

  /// Serialization access for control-plane checkpoints: the histogram
  /// sits inside DiagnosticsReport, which must survive a control-plane
  /// restart exactly.
  const std::array<uint64_t, kNumBuckets>& buckets() const {
    return buckets_;
  }
  uint64_t sum() const { return sum_; }

  /// Rebuilds the histogram from serialized parts (checkpoint restore).
  void Restore(const std::array<uint64_t, kNumBuckets>& buckets,
               uint64_t count, int64_t max, uint64_t sum) {
    buckets_ = buckets;
    count_ = count;
    max_ = max;
    sum_ = sum;
  }

 private:
  std::array<uint64_t, kNumBuckets> buckets_{};
  uint64_t count_ = 0;
  int64_t max_ = 0;
  uint64_t sum_ = 0;
};

}  // namespace prorp::telemetry

#endif  // PRORP_TELEMETRY_HISTOGRAM_H_
