#include "telemetry/histogram.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

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

/// Inclusive upper edge of a bucket: 0 -> 0, b -> 2^b - 1.
double UpperEdge(size_t b) {
  if (b == 0) return 0;
  return static_cast<double>((uint64_t{1} << b) - 1);
}

}  // namespace

void Histogram::Add(int64_t value) {
  if (value < 0) value = 0;  // clock skew guard; waits are non-negative
  ++buckets_[BucketOf(value)];
  ++count_;
  max_ = std::max(max_, value);
  sum_ += static_cast<uint64_t>(value);
}

double Histogram::Mean() const {
  if (count_ == 0) return 0;
  return static_cast<double>(sum_) / static_cast<double>(count_);
}

double Histogram::Percentile(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  uint64_t rank = static_cast<uint64_t>(q * static_cast<double>(count_));
  rank = std::clamp<uint64_t>(rank, 1, count_);
  uint64_t cumulative = 0;
  for (size_t b = 0; b < kNumBuckets; ++b) {
    cumulative += buckets_[b];
    if (cumulative >= rank) {
      return std::min(UpperEdge(b), static_cast<double>(max_));
    }
  }
  return static_cast<double>(max_);
}

std::string Histogram::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "n=%" PRIu64 " p50=%.0f p95=%.0f p99=%.0f max=%" PRId64,
                count_, Percentile(0.5), Percentile(0.95), Percentile(0.99),
                max_);
  return buf;
}

}  // namespace prorp::telemetry
