#ifndef PRORP_COMMON_RANDOM_H_
#define PRORP_COMMON_RANDOM_H_

#include <cstdint>

namespace prorp {

/// Deterministic pseudo-random generator (SplitMix64 seeding a
/// xoshiro256**-style core).  Every stochastic component in ProRP takes one
/// of these so that simulations and benches reproduce bit-for-bit from a
/// seed; see DESIGN.md "Determinism".
class Rng {
 public:
  explicit Rng(uint64_t seed) { Seed(seed); }

  void Seed(uint64_t seed);

  /// Uniform 64-bit value.
  uint64_t NextU64();

  /// Uniform in [0, n).  n must be > 0.
  uint64_t NextBelow(uint64_t n);

  /// Uniform integer in [lo, hi] inclusive.  Requires lo <= hi.
  int64_t NextInt(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// True with probability p (clamped to [0, 1]).
  bool NextBool(double p);

  /// Exponentially distributed with the given mean (> 0).
  double NextExponential(double mean);

  /// Derives an independent child generator; useful to give each simulated
  /// database its own stream so fleet composition changes do not perturb
  /// other databases' traces.  Fork() consumes one draw, so the *number*
  /// of forks taken perturbs the parent stream — use ForkStream when a
  /// subsystem must be addable without disturbing existing consumers.
  Rng Fork();

  /// Derives an independent child generator addressed by `stream_id`,
  /// WITHOUT advancing this generator's state: a pure function of
  /// (seed, stream_id).  Adding or removing a ForkStream consumer
  /// therefore perturbs no other stream — the property the transport
  /// layer relies on so that enabling message-fault injection draws
  /// nothing from the workload or disk-fault streams (DESIGN.md
  /// section 11).  Distinct stream ids give statistically independent
  /// streams; the same (seed, id) pair always yields the same stream.
  Rng ForkStream(uint64_t stream_id) const;

 private:
  uint64_t s_[4];
  uint64_t seed_ = 0;
};

}  // namespace prorp

#endif  // PRORP_COMMON_RANDOM_H_
