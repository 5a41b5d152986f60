#ifndef PRORP_BENCH_BENCH_UTIL_H_
#define PRORP_BENCH_BENCH_UTIL_H_

// Shared setup for the bench harnesses: allocation and RSS counters, fleet
// and arm helpers over the fleet simulator, and the timed harnesses'
// command line and JSON output.

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <new>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "sim/fleet_simulator.h"
#include "workload/region.h"

// ---------------------------------------------------------------------------
// Process-wide allocation counting.
//
// Every bench binary is a single translation unit including this header,
// so the replaceable global operator new/delete can be (non-inline)
// defined here: each executable gets exactly one definition, and every
// allocation in the process — simulator, control plane, history stores —
// bumps one relaxed atomic.  Disabled under sanitizers, whose runtimes
// interpose their own allocator and poison redzones around it; there the
// counter helpers report zero and the default operators stay in place.
// ---------------------------------------------------------------------------

#ifndef PRORP_BENCH_COUNT_ALLOCATIONS
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PRORP_BENCH_COUNT_ALLOCATIONS 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define PRORP_BENCH_COUNT_ALLOCATIONS 0
#else
#define PRORP_BENCH_COUNT_ALLOCATIONS 1
#endif
#else
#define PRORP_BENCH_COUNT_ALLOCATIONS 1
#endif
#endif

namespace prorp::bench {

inline std::atomic<uint64_t> g_allocation_count{0};

/// Heap allocations made by the process so far (operator-new calls).
/// Zero under sanitizer builds, where the default allocator stays in
/// place — callers treat zero as "not measured".
inline uint64_t AllocationCount() {
  return g_allocation_count.load(std::memory_order_relaxed);
}

/// Allocations since a captured baseline — the per-phase helper:
///   uint64_t before = AllocationCount();
///   ...workload...
///   uint64_t allocs = AllocationsSince(before);
inline uint64_t AllocationsSince(uint64_t baseline) {
  uint64_t now = AllocationCount();
  return now >= baseline ? now - baseline : 0;
}

/// Peak resident set size of the process in bytes (Linux ru_maxrss is
/// reported in kilobytes).  Monotone over the process lifetime: a sweep
/// measuring several fleet sizes must run smallest-first for per-size
/// peaks to be attributable.
inline uint64_t PeakRssBytes() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<uint64_t>(usage.ru_maxrss) * 1024;
}

/// Best-effort reset of the kernel's peak-RSS watermark (Linux: writing
/// "5" to /proc/self/clear_refs resets VmHWM).  clear_refs lowers the
/// watermark only to the current RSS, so the heap memory the allocator
/// kept from the previous phase is returned to the kernel first;
/// otherwise a phase that follows a larger one inherits its peak.
/// Returns false where unsupported; PeakRssSinceResetBytes then degrades
/// to the monotone peak.
inline bool ResetPeakRss() {
  malloc_trim(0);
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  bool ok = std::fputs("5", f) >= 0;
  return (std::fclose(f) == 0) && ok;
}

/// Peak RSS honoring the last ResetPeakRss (reads VmHWM, which clear_refs
/// resets; ru_maxrss does not).  Falls back to PeakRssBytes when
/// /proc/self/status is unavailable.  Lets a sweep attribute a peak to
/// each phase instead of only to the largest phase so far.
inline uint64_t PeakRssSinceResetBytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return PeakRssBytes();
  char line[256];
  long kb = -1;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
  }
  std::fclose(f);
  if (kb < 0) return PeakRssBytes();
  return static_cast<uint64_t>(kb) * 1024;
}

}  // namespace prorp::bench

#if PRORP_BENCH_COUNT_ALLOCATIONS
// Replaceable allocation functions (non-inline by [replacement.functions]).
// GCC flags std::free on operator-new results as mismatched; here every
// new variant allocates via malloc/posix_memalign, both free()-able.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) {
  prorp::bench::g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  prorp::bench::g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return ::operator new(size, std::nothrow);
}
void* operator new(std::size_t size, std::align_val_t align) {
  prorp::bench::g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, std::max(static_cast<std::size_t>(align),
                                  sizeof(void*)),
                     size == 0 ? 1 : size) == 0) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#endif  // PRORP_BENCH_COUNT_ALLOCATIONS

namespace prorp::bench {

/// Simulation anchor: day 1005 is a Monday 00:00 UTC.
inline constexpr EpochSeconds kT0 = Days(1005);
/// Warm-up equals the default history length.
inline constexpr EpochSeconds kMeasureFrom = kT0 + Days(28);

struct FleetSetup {
  workload::RegionProfile profile;
  std::vector<workload::DbTrace> traces;
  EpochSeconds measure_from = kMeasureFrom;
  EpochSeconds end = 0;
};

/// Generates a fleet with warm-up plus `eval_days` of evaluation.
inline FleetSetup MakeFleet(const workload::RegionProfile& profile,
                            size_t num_dbs, int eval_days,
                            uint64_t seed = 2024) {
  FleetSetup setup;
  setup.profile = profile;
  setup.end = kMeasureFrom + Days(eval_days);
  setup.traces = workload::GenerateFleet(profile, num_dbs, kT0, setup.end,
                                         seed, kMeasureFrom);
  return setup;
}

inline sim::SimOptions MakeOptions(const FleetSetup& setup,
                                   policy::PolicyMode mode,
                                   uint64_t seed = 7) {
  sim::SimOptions options;
  options.mode = mode;
  options.measure_from = setup.measure_from;
  options.end = setup.end;
  options.eviction_per_hour = setup.profile.eviction_per_hour;
  options.seed = seed;
  // Each arm is one serial simulation; RunArms spreads the arms over
  // DefaultThreads() workers.
  return options;
}

/// One independent experiment arm of a figure harness: a label plus the
/// traces and options of a RunFleetSimulation call.  Arms share nothing —
/// each run builds its own history stores, controllers, metadata store and
/// RNG streams from `options.seed` — so they can execute concurrently with
/// results identical to a serial loop.
struct Arm {
  std::string label;
  const std::vector<workload::DbTrace>* traces = nullptr;
  sim::SimOptions options;
};

/// Runs the arms on a thread pool sized by PRORP_NUM_THREADS (default:
/// hardware concurrency) and returns the reports in arm order, so the
/// printed figure is byte-identical whether the arms ran serially
/// (PRORP_NUM_THREADS=1) or concurrently.
inline std::vector<Result<sim::SimReport>> RunArms(
    const std::vector<Arm>& arms) {
  std::vector<std::function<Result<sim::SimReport>()>> jobs;
  jobs.reserve(arms.size());
  for (const Arm& arm : arms) {
    jobs.emplace_back([&arm] {
      return sim::RunFleetSimulation(*arm.traces, arm.options);
    });
  }
  return common::RunOnPool<Result<sim::SimReport>>(
      std::move(jobs), common::ThreadPool::DefaultThreads());
}

/// True when every stuck workflow of the run is accounted for: mitigated,
/// an incident, skipped or shed after a failure, or still pending.
inline bool AccountingReconciles(const sim::SimReport& report) {
  const auto& d = report.diagnostics;
  return d.stuck_workflows == d.mitigated + d.incidents +
                                  d.failed_then_skipped +
                                  d.failed_then_shed +
                                  report.pending_failed;
}

inline void PrintHeader(const char* figure, const char* claim) {
  std::printf("==============================================================\n");
  std::printf("%s\n", figure);
  std::printf("paper: %s\n", claim);
  std::printf("==============================================================\n");
}

// ---------------------------------------------------------------------------
// Command line and machine-readable output (BENCH_*.json).
//
// The timed harnesses persist one JSON document per run so the perf
// trajectory is diffable across PRs instead of living in scrollback.  The
// schema is intentionally flat: one row per workload plus a "derived" map
// of cross-workload ratios (speedups) that the CI smoke gates assert on.
// ---------------------------------------------------------------------------

/// The command line of a bench that writes a BENCH_*.json.
struct BenchArgs {
  bool smoke = false;
  std::string out_path;  // empty: write no JSON
};

/// Parses `[--smoke] [--out=PATH | --no-out]`, or `[--out=PATH]` alone
/// without `with_smoke`; the JSON goes to `default_out` unless told
/// otherwise.  Prints the usage and returns nullopt on any other argument.
inline std::optional<BenchArgs> ParseBenchArgs(int argc, char** argv,
                                               std::string default_out,
                                               bool with_smoke = true) {
  BenchArgs args;
  args.out_path = std::move(default_out);
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (with_smoke && arg == "--smoke") {
      args.smoke = true;
    } else if (arg.rfind("--out=", 0) == 0) {
      args.out_path = arg.substr(6);
    } else if (with_smoke && arg == "--no-out") {
      args.out_path.clear();
    } else {
      std::fprintf(stderr, "usage: %s %s\n", argv[0],
                   with_smoke ? "[--smoke] [--out=PATH | --no-out]"
                              : "[--out=PATH]");
      return std::nullopt;
    }
  }
  return args;
}

/// printf into a std::string (one JSON row or member).
[[gnu::format(printf, 1, 2)]] inline std::string StrPrintf(const char* fmt,
                                                           ...) {
  std::va_list args;
  va_start(args, fmt);
  std::va_list copy;
  va_copy(copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out(n > 0 ? static_cast<size_t>(n) : 0, '\0');
  if (n > 0) std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  va_end(args);
  return out;
}

/// Writes one BENCH_*.json document at `path`: `benchmark` and `mode`,
/// then the `extra` top-level members (rendered `"key": value`), the
/// process's peak RSS and allocation count, the rendered `rows` as the
/// "results" array and the `derived` ratios.  Returns false (after
/// printing to stderr) if the file cannot be opened or the final flush
/// fails (e.g. ENOSPC); the numbers on stdout are unaffected.
inline bool WriteBenchJson(
    const std::string& path, const std::string& benchmark,
    const std::string& mode, const std::vector<std::string>& extra,
    const std::vector<std::string>& rows,
    const std::vector<std::pair<std::string, double>>& derived) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fprintf(f, "{\n  \"benchmark\": \"%s\",\n  \"mode\": \"%s\",\n",
               benchmark.c_str(), mode.c_str());
  for (const std::string& member : extra) {
    std::fprintf(f, "  %s,\n", member.c_str());
  }
  // Process-wide resource footprint at write time: peak RSS always,
  // allocation count when the counting allocator is active (0 under
  // sanitizers = not measured).
  std::fprintf(f, "  \"peak_rss_bytes\": %llu,\n  \"allocations\": %llu,\n",
               static_cast<unsigned long long>(PeakRssBytes()),
               static_cast<unsigned long long>(AllocationCount()));
  std::fprintf(f, "  \"results\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f, "    %s%s\n", rows[i].c_str(),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"derived\": {\n");
  for (size_t i = 0; i < derived.size(); ++i) {
    std::fprintf(f, "    \"%s\": %.3f%s\n", derived[i].first.c_str(),
                 derived[i].second, i + 1 < derived.size() ? "," : "");
  }
  std::fprintf(f, "  }\n}\n");
  if (std::fclose(f) != 0) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

/// One measured workload of a micro harness.
struct MicroResult {
  std::string name;    // e.g. "wal_append_nosync" — snake_case, no quotes
  int threads = 1;     // concurrent worker threads driving the workload
  double ops = 0;      // total operations completed across all threads
  double seconds = 0;  // wall-clock duration of the measured region
  double p50_us = 0;   // per-op latency percentiles, microseconds
  double p95_us = 0;
  double p99_us = 0;

  double ops_per_sec() const { return seconds > 0 ? ops / seconds : 0; }
};

inline void PrintMicroRow(const MicroResult& r) {
  std::printf("%-28s threads=%-2d ops=%-9.0f %12.0f ops/s  "
              "p50=%8.2fus p95=%8.2fus p99=%8.2fus\n",
              r.name.c_str(), r.threads, r.ops, r.ops_per_sec(), r.p50_us,
              r.p95_us, r.p99_us);
}

/// WriteBenchJson over MicroResult rows.
inline bool WriteMicroJson(
    const std::string& path, const std::string& benchmark,
    const std::string& mode, const std::vector<MicroResult>& results,
    const std::vector<std::pair<std::string, double>>& derived) {
  std::vector<std::string> rows;
  rows.reserve(results.size());
  for (const MicroResult& r : results) {
    rows.push_back(StrPrintf(
        "{\"name\": \"%s\", \"threads\": %d, \"ops\": %.0f, "
        "\"seconds\": %.6f, \"ops_per_sec\": %.1f, "
        "\"p50_us\": %.3f, \"p95_us\": %.3f, \"p99_us\": %.3f}",
        r.name.c_str(), r.threads, r.ops, r.seconds, r.ops_per_sec(),
        r.p50_us, r.p95_us, r.p99_us));
  }
  return WriteBenchJson(path, benchmark, mode, {}, rows, derived);
}

}  // namespace prorp::bench

#endif  // PRORP_BENCH_BENCH_UTIL_H_
