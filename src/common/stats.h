#ifndef PRORP_COMMON_STATS_H_
#define PRORP_COMMON_STATS_H_

#include <cstddef>
#include <string>
#include <vector>

namespace prorp {

/// Five-number summary used for the box plots of Figures 11 and 12.
struct BoxPlot {
  double min = 0;
  double q1 = 0;
  double median = 0;
  double q3 = 0;
  double max = 0;
  size_t count = 0;

  std::string ToString() const;
};

/// Simple accumulating summary over a sample of doubles.  Not streaming:
/// keeps the sample so exact percentiles can be computed (sample sizes in
/// ProRP benches are modest).
class Summary {
 public:
  void Add(double v) { values_.push_back(v); }
  void AddAll(const std::vector<double>& vs);

  size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  double Mean() const;
  double Min() const;
  double Max() const;
  double Sum() const;

  /// Exact percentile via linear interpolation between closest ranks.
  /// q in [0, 1].  Returns 0 on an empty sample.
  double Percentile(double q) const;

  BoxPlot ToBoxPlot() const;

  /// Values sorted ascending (copies; used by CDF printers).
  std::vector<double> Sorted() const;

 private:
  std::vector<double> values_;
};

/// Points of an empirical CDF, for the CDF charts of Figures 3 and 10.
struct CdfPoint {
  double value;
  double cumulative_fraction;  // in (0, 1]
};

/// Builds an empirical CDF downsampled to at most `max_points` points
/// (always including the max).
std::vector<CdfPoint> BuildCdf(const Summary& summary,
                               size_t max_points = 20);

}  // namespace prorp

#endif  // PRORP_COMMON_STATS_H_
