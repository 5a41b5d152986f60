#ifndef PRORP_COMMON_BACKOFF_H_
#define PRORP_COMMON_BACKOFF_H_

#include <algorithm>
#include <cstdint>

#include "common/time_util.h"

namespace prorp::common {

/// SplitMix64 finalizer over (key, salt): the deterministic jitter hash
/// shared by the retry-backoff schedule and the slow-start admission ramp.
/// Deterministic in its inputs alone, so every re-run computes the
/// identical jitter.
constexpr uint64_t JitterHash(uint64_t key, uint64_t salt) {
  uint64_t h = key * 0x9e3779b97f4a7c15ULL + salt * 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

/// min(cap, base * 2^step), saturating (the 62 guards the shift overflow).
/// `step` is clamped at 0.  Works for any non-negative int64 quantity —
/// backoff delays in seconds, admission quotas in workflows.
constexpr int64_t CappedExponential(int64_t base, int64_t cap, int step) {
  int exp = std::max(0, step);
  if (exp < 62 && base <= (cap >> exp)) return base << exp;
  return cap;
}

/// Adds a deterministic jitter in [0, fraction * value] hashed from
/// (key, salt) so that a burst of simultaneous schedules does not fire in
/// lockstep.  Returns `value` unchanged when the jitter range rounds to 0.
constexpr int64_t WithJitter(int64_t value, double fraction, uint64_t key,
                             uint64_t salt) {
  auto range = static_cast<int64_t>(fraction * static_cast<double>(value));
  if (range <= 0) return value;
  return value + static_cast<int64_t>(JitterHash(key, salt) %
                                      static_cast<uint64_t>(range + 1));
}

/// Backoff before retry attempt `attempt` (1-based) of the workflow
/// identified by `key`: min(cap, base * 2^(attempt-1)) plus deterministic
/// jitter in [0, jitter_fraction * delay] hashed from (key, attempt).
/// Bit-identical to the schedule ManagementService used before this
/// helper was extracted (asserted by tests/common/backoff_test.cc).
constexpr DurationSeconds BackoffDelay(DurationSeconds base,
                                       DurationSeconds cap,
                                       double jitter_fraction, uint64_t key,
                                       int attempt) {
  DurationSeconds delay = CappedExponential(base, cap, attempt - 1);
  return WithJitter(delay, jitter_fraction, key,
                    static_cast<uint64_t>(attempt));
}

}  // namespace prorp::common

#endif  // PRORP_COMMON_BACKOFF_H_
