#include "workload/region.h"

#include "workload/trace_source.h"

namespace prorp::workload {

// Mix weights are calibrated so that (a) idle-gap fragmentation matches
// the Figure 3 shape (most idle intervals are short but contribute a tiny
// share of idle time), (b) the reactive baseline lands in the paper's
// 60-68% QoS band under each region's capacity pressure, and (c) the
// proactive policy lands in the 80-90% band.  bench_paper's Figure 3 and
// Figure 6 rows print and check the calibration numbers; EXPERIMENTS.md
// discusses the inherent tension between Figure 3's 72% short-gap count
// share and Figure 6's reactive QoS band.

RegionProfile RegionEU1() {
  RegionProfile p;
  p.name = "EU1";
  p.mix = {
      {PatternType::kDailyBusiness, 0.31},
      {PatternType::kDaily, 0.13},
      {PatternType::kWeekly, 0.09},
      {PatternType::kAlwaysBusy, 0.05},
      {PatternType::kSporadic, 0.25},
      {PatternType::kBursty, 0.03},
      {PatternType::kDevTest, 0.14},
  };
  p.eviction_per_hour = 0.50;
  p.new_db_fraction = 0.03;
  return p;
}

RegionProfile RegionEU2() {
  RegionProfile p;
  p.name = "EU2";
  p.mix = {
      {PatternType::kDailyBusiness, 0.32},
      {PatternType::kDaily, 0.14},
      {PatternType::kWeekly, 0.08},
      {PatternType::kAlwaysBusy, 0.07},
      {PatternType::kSporadic, 0.23},
      {PatternType::kBursty, 0.02},
      {PatternType::kDevTest, 0.14},
  };
  p.eviction_per_hour = 0.42;
  p.new_db_fraction = 0.04;
  return p;
}

RegionProfile RegionUS1() {
  RegionProfile p;
  p.name = "US1";
  p.mix = {
      {PatternType::kDailyBusiness, 0.36},
      {PatternType::kDaily, 0.12},
      {PatternType::kWeekly, 0.06},
      {PatternType::kAlwaysBusy, 0.05},
      {PatternType::kSporadic, 0.25},
      {PatternType::kBursty, 0.04},
      {PatternType::kDevTest, 0.13},
  };
  p.eviction_per_hour = 0.57;
  p.new_db_fraction = 0.03;
  return p;
}

RegionProfile RegionUS2() {
  RegionProfile p;
  p.name = "US2";
  p.mix = {
      {PatternType::kDailyBusiness, 0.31},
      {PatternType::kDaily, 0.13},
      {PatternType::kWeekly, 0.08},
      {PatternType::kAlwaysBusy, 0.05},
      {PatternType::kSporadic, 0.26},
      {PatternType::kBursty, 0.03},
      {PatternType::kDevTest, 0.14},
  };
  p.eviction_per_hour = 0.50;
  p.new_db_fraction = 0.05;
  return p;
}

std::vector<RegionProfile> AllRegions() {
  return {RegionEU1(), RegionEU2(), RegionUS1(), RegionUS2()};
}

DbPlacement DrawPlacement(const RegionProfile& profile, EpochSeconds from,
                          EpochSeconds to, EpochSeconds new_from, Rng& rng) {
  double total_weight = 0;
  for (const auto& [pattern, weight] : profile.mix) total_weight += weight;
  DbPlacement placement;
  placement.pattern = profile.mix.back().first;
  double pick = rng.NextDouble() * total_weight;
  for (const auto& [candidate, weight] : profile.mix) {
    if (pick < weight) {
      placement.pattern = candidate;
      break;
    }
    pick -= weight;
  }
  placement.start = from;
  if (rng.NextBool(profile.new_db_fraction) && new_from > from) {
    placement.start = new_from + rng.NextInt(0, to - new_from - 1);
  }
  return placement;
}

std::vector<DbTrace> GenerateFleet(const RegionProfile& profile,
                                   size_t num_dbs, EpochSeconds from,
                                   EpochSeconds to, uint64_t seed,
                                   EpochSeconds new_from) {
  if (new_from <= 0) new_from = from;
  Rng master(seed);
  std::vector<DbTrace> fleet;
  fleet.reserve(num_dbs);
  for (size_t i = 0; i < num_dbs; ++i) {
    // Sequential Fork, unlike StreamingFleetSource's ForkStream: the
    // figure benches' calibrated fleets are defined by this derivation.
    Rng db_rng = master.Fork();
    DbPlacement placement = DrawPlacement(profile, from, to, new_from, db_rng);
    fleet.push_back(GenerateTrace(placement.pattern, static_cast<uint32_t>(i),
                                  placement.start, to, db_rng));
  }
  return fleet;
}

}  // namespace prorp::workload
