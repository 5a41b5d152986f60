#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

namespace prorp {

std::string BoxPlot::ToString() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "min=%.1f q1=%.1f med=%.1f q3=%.1f max=%.1f (n=%zu)", min, q1,
                median, q3, max, count);
  return buf;
}

void Summary::AddAll(const std::vector<double>& vs) {
  values_.insert(values_.end(), vs.begin(), vs.end());
}

double Summary::Mean() const {
  if (values_.empty()) return 0;
  return Sum() / static_cast<double>(values_.size());
}

double Summary::Sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

double Summary::Min() const {
  if (values_.empty()) return 0;
  return *std::min_element(values_.begin(), values_.end());
}

double Summary::Max() const {
  if (values_.empty()) return 0;
  return *std::max_element(values_.begin(), values_.end());
}

double Summary::Percentile(double q) const {
  if (values_.empty()) return 0;
  if (q <= 0) return Min();
  if (q >= 1) return Max();
  std::vector<double> sorted = Sorted();
  double rank = q * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = static_cast<size_t>(std::ceil(rank));
  double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

BoxPlot Summary::ToBoxPlot() const {
  BoxPlot b;
  b.count = values_.size();
  if (values_.empty()) return b;
  b.min = Min();
  b.q1 = Percentile(0.25);
  b.median = Percentile(0.5);
  b.q3 = Percentile(0.75);
  b.max = Max();
  return b;
}

std::vector<double> Summary::Sorted() const {
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

std::vector<CdfPoint> BuildCdf(const Summary& summary, size_t max_points) {
  std::vector<CdfPoint> cdf;
  if (summary.empty() || max_points == 0) return cdf;
  std::vector<double> sorted = summary.Sorted();
  size_t n = sorted.size();
  size_t points = std::min(max_points, n);
  cdf.reserve(points);
  for (size_t i = 1; i <= points; ++i) {
    // Index of the i-th of `points` evenly spaced quantiles; the last point
    // is always the sample maximum.
    size_t idx = (i * n) / points - 1;
    cdf.push_back({sorted[idx],
                   static_cast<double>(idx + 1) / static_cast<double>(n)});
  }
  return cdf;
}

}  // namespace prorp
