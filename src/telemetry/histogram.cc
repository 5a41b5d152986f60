#include "telemetry/histogram.h"

#include <algorithm>

namespace prorp::telemetry {
namespace {

/// Bucket of a non-negative value: 0 -> 0, v -> bit_width(v) clamped.
size_t BucketOf(int64_t v) {
  if (v <= 0) return 0;
  size_t b = 0;
  uint64_t u = static_cast<uint64_t>(v);
  while (u > 0) {
    u >>= 1;
    ++b;
  }
  return std::min(b, Histogram::kNumBuckets - 1);
}

}  // namespace

void Histogram::Add(int64_t value) {
  if (value < 0) value = 0;  // clock skew guard; waits are non-negative
  ++buckets_[BucketOf(value)];
  ++count_;
  max_ = std::max(max_, value);
  sum_ += static_cast<uint64_t>(value);
}

}  // namespace prorp::telemetry
