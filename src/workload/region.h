#ifndef PRORP_WORKLOAD_REGION_H_
#define PRORP_WORKLOAD_REGION_H_

#include <string>
#include <vector>

#include "common/random.h"
#include "workload/trace.h"

namespace prorp::workload {

/// Composition of a simulated Azure region's serverless fleet.  The four
/// profiles below stand in for the paper's EU1/EU2/US1/US2 production
/// regions: same archetypes, slightly different mixes, which is what
/// produces the spread of Figure 6.
struct RegionProfile {
  std::string name;
  /// Pattern mix; weights are normalized.
  std::vector<std::pair<PatternType, double>> mix;
  /// Per-hour hazard that a logically paused database is reclaimed early
  /// by node capacity pressure (see DESIGN.md section 3).
  double eviction_per_hour = 0.05;
  /// Fraction of databases created inside the evaluation window ("new"
  /// databases with no usable history; Section 4).
  double new_db_fraction = 0.03;
};

RegionProfile RegionEU1();
RegionProfile RegionEU2();
RegionProfile RegionUS1();
RegionProfile RegionUS2();
std::vector<RegionProfile> AllRegions();

/// One database's place in its region's fleet.
struct DbPlacement {
  PatternType pattern = PatternType::kSporadic;
  /// Start of the database's trace: `from`, or its creation time inside
  /// [new_from, to) for a database drawn as new.
  EpochSeconds start = 0;
};

/// Draws a database's archetype from the profile's mix, then whether it
/// is new.  Every fleet generator consumes the database's stream in this
/// order and hands the rest of it to the archetype generator.
DbPlacement DrawPlacement(const RegionProfile& profile, EpochSeconds from,
                          EpochSeconds to, EpochSeconds new_from, Rng& rng);

/// Generates a fleet of `num_dbs` traces over [from, to).  Databases drawn
/// as "new" are created at a random time inside [new_from, to) instead of
/// at the window start (new_from defaults to `from` when <= 0 is passed).
/// Deterministic in `seed`.
std::vector<DbTrace> GenerateFleet(const RegionProfile& profile,
                                   size_t num_dbs, EpochSeconds from,
                                   EpochSeconds to, uint64_t seed,
                                   EpochSeconds new_from = 0);

}  // namespace prorp::workload

#endif  // PRORP_WORKLOAD_REGION_H_
