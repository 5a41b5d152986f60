// Fleet-scale benchmark of the simulation hot loop (DESIGN.md section 13):
// how fast the simulator pushes a fleet through 60 days of virtual time
// as the fleet grows 10k -> 100k -> 1M databases.
//
// Configurations:
//  * scale_*  — the million-database path: streaming trace source (no
//    materialized session vectors), hierarchical timer wheel, streaming
//    KPI telemetry, shared null history store, index-only metadata store.
//  * proactive_* — the paper's policy on the scale path: the same
//    streaming source, wheel, telemetry and index-only metadata, but
//    proactive, so every database keeps an in-memory history and runs
//    Algorithm 4 after each logout and expired logical pause.  Run at 10k
//    and 100k.
//  * durable_10k — proactive_10k with a durable control plane: every
//    transition journaled (buffered, with checkpoints), as in perfbench's
//    durable workload.  The journal lives in a scratch directory under the
//    current directory.
//
// Every arm sends its pre-warms over the simulator's inline transport.
//
// This binary measures only speed and footprint; the simulator's output
// is pinned by tests/sim/sim_report_digest_test.cc.
//
// Usage:
//   bench_fleet_scale [--smoke] [--out=PATH | --no-out]
//
// --smoke drops the 1M run and the 100k proactive arm for CI, emits the
// same JSON, and exits non-zero if a scale-path configuration regresses:
//  * scale_10k's peak RSS or allocation count exceeds its budget (see
//    kSmokeRssBudget10k: losing any scale-path ingredient fails one);
//  * proactive_10k's or durable_10k's allocation count exceeds its
//    budget (see kSmokeAllocationBudgetProactive10k), or proactive_10k's
//    peak RSS exceeds its budget (see kSmokeRssBudgetProactive10k);
//  * scale_100k's events/sec falls below the committed floor, or its
//    peak RSS exceeds the committed budget;
//  * proactive_10k runs at less than 0.10x scale_10k's events/sec.  The
//    ratio of two arms on the same machine does not depend on the
//    machine; with one in-place history read and one counting pass per
//    prediction it is about 0.35, and with one history read per season
//    it was about 0.05;
//  * durable_10k skips fewer idle resume ticks than its committed count
//    (see kSmokeSkippedFloorDurable10k);
//  * durable_10k runs at less than kSmokeDurableRatioFloor10k x
//    proactive_10k's events/sec (see that constant for the measured
//    ratios).  That ratio is taken over kDurablePairs proactive_10k /
//    durable_10k pairs, in full mode as under --smoke, whose first arm
//    alternates; every pair's ratio is printed, and the pair with the
//    median ratio is the one reported and gated, so one slow run on a
//    shared host cannot fail the gate or skew the committed trajectory.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "sim/fleet_simulator.h"
#include "workload/region.h"
#include "workload/trace_source.h"

namespace prorp::bench {
namespace {

using Clock = std::chrono::steady_clock;

// 28 warm-up days (the default history length) + 32 evaluation days.
constexpr int kVirtualDays = 60;
constexpr EpochSeconds kScaleEnd = kT0 + Days(kVirtualDays);

// Budgets on scale_10k's peak RSS and allocation count.  Both count what
// the run holds and asks for, so unlike events/s they do not move with
// the host's load.  The arm peaks at ~11 MiB over 39,525 allocations;
// the allocation budget is that count plus 5%.  The timer wheel's
// per-slot vectors, in place of its one node pool, made it 76,395.  Put
// back one at a time, and measured with those vectors, the scale-path
// ingredients cost (peak RSS, allocations): full telemetry (108 MiB,
// 76k), the SQL-mirrored metadata store (13 MiB, 58M), one in-memory
// history per database (68 MiB, 155k), materialized traces (34 MiB,
// 155k).  Each ingredient's loss fails at least one budget.
constexpr uint64_t kSmokeRssBudget10k = uint64_t{24} * 1024 * 1024;
constexpr uint64_t kSmokeAllocationBudget10k = 41'502;
// Budgets on proactive_10k's and durable_10k's allocation counts, each
// the arm's largest over its pairs: the first run of an arm in the
// process makes 1,289,949 and 1,294,291, later runs up to 76 fewer (the
// predictor's per-thread scratch and the crash-point registry grow once
// per process).  With the predictor reading each history in place into
// those buffers, inline-answered pre-warms leaving no dispatcher table
// entry, and the timer wheel's events in one node pool, the budgets are
// those counts plus 5%.  Each of these put back alone fails them: the
// predictor's CollectLogins copy (2,329,296), a table node per inline
// dispatch (1,734,950), node agents recording every applied request id
// (about 400,000 more).  Before all three the arms made 3,673,980 and
// 3,678,398; the wheel's per-slot vectors added about 43,300 to each.
constexpr uint64_t kSmokeAllocationBudgetProactive10k = 1'354'447;
constexpr uint64_t kSmokeAllocationBudgetDurable10k = 1'359'006;
// Budget on proactive_10k's peak RSS.  The arm peaks at 33.8 MiB (the
// same in every pair of one run); with the timer wheel's per-slot
// vectors in place of its node pool it peaked at 39.8 MiB, which fails
// this budget.
constexpr uint64_t kSmokeRssBudgetProactive10k = uint64_t{36} * 1024 * 1024;
// Committed smoke-gate constants for the 100k scale configuration.  Full
// runs (BENCH_fleet_scale.json) on a shared 4-vCPU host measured 1.30M and
// later 2.64M events/sec, and 88 MB peak RSS; the floor leaves 2.6-5.3x
// headroom and the budget ~13x, so slower machines pass while an
// order-of-magnitude regression still fails.
constexpr double kSmokeEventsPerSecFloor100k = 500'000;
constexpr uint64_t kSmokeRssBudget100k = uint64_t{1200} * 1024 * 1024;
// Floor on proactive_10k events/sec over scale_10k events/sec.
constexpr double kSmokeProactiveRatioFloor10k = 0.10;
// Floor on durable_10k events/sec over proactive_10k events/sec.  About
// 0.47 with the journal's mapped tail and fsync-free buffered checkpoints;
// 0.20 with one write(2) per journal record and three fsyncs per
// checkpoint.  Checkpoints that no longer carry one sample per iteration
// moved it to 0.38-0.55 from 0.29-0.44 in back-to-back runs on a shared
// 4-vCPU host.  Publishing checkpoints by exchange and cutting the journal
// in place (no file-system flush per checkpoint) moved it to 0.63-0.70
// from 0.45-0.52 (five alternating --smoke runs each, same host): the
// ranges are apart, and 0.55 failed every run of the rename-and-ftruncate
// code.  Journal frames that carry only their non-zero fields (31 bytes
// instead of 115) read 0.62-0.79 in five --smoke runs against the fixed
// frames' 0.62-0.69 (alternating, same host; the pairs' first arm
// alternating too); the slowest run clears 0.57 by 0.05.
constexpr double kSmokeDurableRatioFloor10k = 0.57;
// Floor on durable_10k's resume ticks skipped as idle
// (ManagementService::IdleAt): 19,640 of its Algorithm 5 ticks, one a
// minute for 60 days.  The count depends on the simulation alone, not on
// the host, so the floor is the exact count; a predicate that never
// reports idle makes it 0.
constexpr uint64_t kSmokeSkippedFloorDurable10k = 19'640;
// proactive_10k / durable_10k pairs, in both modes.  One pair measured
// 0.29 in one of four back-to-back runs on unchanged code.
constexpr size_t kDurablePairs = 3;

struct ScaleResult {
  std::string name;
  size_t num_dbs = 0;
  uint64_t events = 0;
  double seconds = 0;
  uint64_t peak_rss_bytes = 0;  // attributed to this run via ResetPeakRss
  uint64_t allocations = 0;     // 0 under sanitizers = not measured
  uint64_t resume_ticks_skipped = 0;  // idle Algorithm 5 ticks, counted

  double events_per_sec() const { return seconds > 0 ? events / seconds : 0; }
  double dbs_per_sec() const { return seconds > 0 ? num_dbs / seconds : 0; }
};

workload::RegionProfile ScaleProfile() {
  workload::RegionProfile profile = workload::RegionEU1();
  // Keep both configurations eviction-free: forced evictions perturb
  // event counts without exercising anything the scale layer changed.
  profile.eviction_per_hour = 0;
  return profile;
}

sim::SimOptions BaseOptions(policy::PolicyMode mode) {
  sim::SimOptions options;
  options.mode = mode;
  options.measure_from = kMeasureFrom;
  options.end = kScaleEnd;
  options.seed = 7;
  return options;
}

/// Scratch directory of the durable arm's journal and checkpoints.
constexpr char kJournalDir[] = "prorp_bench_fleet_scale.journal";

/// The million-database configuration: everything streams.  The reactive
/// policy never reads history, so its databases share one null store; the
/// proactive policy keeps one in-memory history per database.  `durable`
/// routes the control plane through a journal in kJournalDir.
Result<ScaleResult> RunScaleConfig(const std::string& name, size_t num_dbs,
                                   policy::PolicyMode mode, bool durable) {
  ResetPeakRss();
  uint64_t allocs_before = AllocationCount();
  workload::StreamingFleetSource source(ScaleProfile(), num_dbs, kT0,
                                        kScaleEnd, 2024, kMeasureFrom);
  sim::SimOptions options = BaseOptions(mode);
  options.telemetry = sim::SimOptions::Telemetry::kStreaming;
  options.use_null_history = mode == policy::PolicyMode::kReactive;
  if (durable) {
    std::filesystem::remove_all(kJournalDir);
    options.control_plane_journal_dir = kJournalDir;
  }

  Clock::time_point t0 = Clock::now();
  Result<sim::SimReport> run = sim::RunFleetSimulation(source, options);
  const double seconds =
      std::chrono::duration<double>(Clock::now() - t0).count();
  if (durable) std::filesystem::remove_all(kJournalDir);
  PRORP_ASSIGN_OR_RETURN(sim::SimReport report, std::move(run));
  ScaleResult r;
  r.name = name;
  r.num_dbs = num_dbs;
  r.events = report.events_processed;
  r.seconds = seconds;
  r.peak_rss_bytes = PeakRssSinceResetBytes();
  r.allocations = AllocationsSince(allocs_before);
  r.resume_ticks_skipped = report.resume_ticks_skipped;
  return r;
}

void PrintRow(const ScaleResult& r) {
  std::printf("%-12s dbs=%-8zu events=%-11llu wall=%8.2fs  "
              "%10.0f events/s  %8.0f dbs/s  rss=%llu MB\n",
              r.name.c_str(), r.num_dbs,
              static_cast<unsigned long long>(r.events), r.seconds,
              r.events_per_sec(), r.dbs_per_sec(),
              static_cast<unsigned long long>(r.peak_rss_bytes >> 20));
  if (r.resume_ticks_skipped > 0) {
    std::printf("%-12s resume ticks skipped as idle: %llu\n", r.name.c_str(),
                static_cast<unsigned long long>(r.resume_ticks_skipped));
  }
}

bool WriteScaleJson(const std::string& path, const std::string& mode,
                    const std::vector<ScaleResult>& results,
                    const std::vector<std::pair<std::string, double>>& derived) {
  std::vector<std::string> rows;
  rows.reserve(results.size());
  for (const ScaleResult& r : results) {
    rows.push_back(StrPrintf(
        "{\"name\": \"%s\", \"num_dbs\": %zu, \"events\": %llu, "
        "\"seconds\": %.3f, \"events_per_sec\": %.0f, "
        "\"dbs_per_sec\": %.1f, \"peak_rss_bytes\": %llu, "
        "\"allocations\": %llu}",
        r.name.c_str(), r.num_dbs, static_cast<unsigned long long>(r.events),
        r.seconds, r.events_per_sec(), r.dbs_per_sec(),
        static_cast<unsigned long long>(r.peak_rss_bytes),
        static_cast<unsigned long long>(r.allocations)));
  }
  return WriteBenchJson(path, "fleet_scale", mode,
                        {StrPrintf("\"virtual_days\": %d", kVirtualDays)},
                        rows, derived);
}

const ScaleResult* Find(const std::vector<ScaleResult>& results,
                        const std::string& name) {
  for (const ScaleResult& r : results) {
    if (r.name == name) return &r;
  }
  return nullptr;
}

int Run(bool smoke, const std::string& out_path) {
  PrintHeader("bench_fleet_scale: simulator throughput 10k -> 100k -> 1M",
              "Section 7 operates on a fleet of millions of serverless "
              "databases; the simulator must cover months of fleet time "
              "in minutes");

  using policy::PolicyMode;
  struct Job {
    const char* name;
    size_t num_dbs;
    PolicyMode mode;
    bool smoke_too;
    bool durable = false;
  };
  // Scale configs run smallest-first so each attributed peak reflects its
  // own fleet (the watermark reset is best-effort; without it the peak is
  // monotone and only the largest run's number is meaningful).
  const Job jobs[] = {
      {"scale_10k", 10'000, PolicyMode::kReactive, true},
      {"proactive_10k", 10'000, PolicyMode::kProactive, true},
      {"durable_10k", 10'000, PolicyMode::kProactive, true, true},
      {"scale_100k", 100'000, PolicyMode::kReactive, true},
      {"proactive_100k", 100'000, PolicyMode::kProactive, false},
      {"scale_1m", 1'000'000, PolicyMode::kReactive, false},
  };

  auto run = [](const Job& job) -> Result<ScaleResult> {
    Result<ScaleResult> r =
        RunScaleConfig(job.name, job.num_dbs, job.mode, job.durable);
    if (r.ok()) {
      PrintRow(*r);
    } else {
      std::fprintf(stderr, "%s failed: %s\n", job.name,
                   r.status().ToString().c_str());
    }
    return r;
  };

  std::vector<ScaleResult> results;
  for (size_t i = 0; i < std::size(jobs); ++i) {
    const Job& job = jobs[i];
    if (smoke && !job.smoke_too) continue;
    Result<ScaleResult> r = run(job);
    if (!r.ok()) return 2;
    if (job.durable) {
      // durable_10k is gated against proactive_10k, the job before it.
      // The two run as kDurablePairs pairs, and the pair with the median
      // ratio is kept.  The arm that runs first alternates from pair to
      // pair: where a run depends on the one before it (a proactive rerun
      // after a durable run once measured ~1.6x slower), a fixed order
      // would bias every pair the same way.
      auto ratio = [](const std::pair<ScaleResult, ScaleResult>& pair) {
        return pair.second.events_per_sec() / pair.first.events_per_sec();
      };
      std::vector<std::pair<ScaleResult, ScaleResult>> pairs;
      pairs.emplace_back(std::move(results.back()), std::move(*r));
      std::printf("durable pair 1 (proactive first): %.2f\n",
                  ratio(pairs.back()));
      while (pairs.size() < kDurablePairs) {
        const bool durable_first = pairs.size() % 2 == 1;
        Result<ScaleResult> a = run(durable_first ? job : jobs[i - 1]);
        if (!a.ok()) return 2;
        Result<ScaleResult> b = run(durable_first ? jobs[i - 1] : job);
        if (!b.ok()) return 2;
        if (durable_first) std::swap(a, b);
        pairs.emplace_back(std::move(*a), std::move(*b));
        std::printf("durable pair %zu (%s first): %.2f\n", pairs.size(),
                    durable_first ? "durable" : "proactive",
                    ratio(pairs.back()));
      }
      // Each arm's first run in the process also pays one-time heap
      // growth (the predictor's per-thread scratch, the crash-point
      // registry), so the kept pair reports the arm's largest count: the
      // timing that picks the median pair must not pick the count.
      uint64_t allocations[2] = {0, 0};
      for (const auto& [proactive, durable] : pairs) {
        allocations[0] = std::max(allocations[0], proactive.allocations);
        allocations[1] = std::max(allocations[1], durable.allocations);
      }
      std::sort(pairs.begin(), pairs.end(),
                [&](const auto& a, const auto& b) {
                  return ratio(a) < ratio(b);
                });
      results.back() = std::move(pairs[pairs.size() / 2].first);
      *r = std::move(pairs[pairs.size() / 2].second);
      results.back().allocations = allocations[0];
      r->allocations = allocations[1];
    }
    results.push_back(std::move(*r));
  }

  std::vector<std::pair<std::string, double>> derived;
  const ScaleResult* scale10k = Find(results, "scale_10k");
  const ScaleResult* scale100k = Find(results, "scale_100k");
  const ScaleResult* scale1m = Find(results, "scale_1m");
  const ScaleResult* proactive10k = Find(results, "proactive_10k");
  const ScaleResult* proactive100k = Find(results, "proactive_100k");
  const ScaleResult* durable10k = Find(results, "durable_10k");
  if (scale1m != nullptr) {
    derived.emplace_back("minutes_1m", scale1m->seconds / 60.0);
  }
  double proactive_ratio10k = 0;
  if (scale10k != nullptr && proactive10k != nullptr &&
      scale10k->events_per_sec() > 0) {
    proactive_ratio10k =
        proactive10k->events_per_sec() / scale10k->events_per_sec();
    derived.emplace_back("proactive_vs_scale_10k", proactive_ratio10k);
  }
  if (scale100k != nullptr && proactive100k != nullptr &&
      scale100k->events_per_sec() > 0) {
    derived.emplace_back(
        "proactive_vs_scale_100k",
        proactive100k->events_per_sec() / scale100k->events_per_sec());
  }
  double durable_ratio10k = 0;
  if (proactive10k != nullptr && durable10k != nullptr &&
      proactive10k->events_per_sec() > 0) {
    durable_ratio10k =
        durable10k->events_per_sec() / proactive10k->events_per_sec();
    derived.emplace_back("durable_vs_proactive_10k", durable_ratio10k);
  }

  for (const auto& [name, value] : derived) {
    std::printf("%-24s %.2f\n", name.c_str(), value);
  }

  if (!out_path.empty() &&
      !WriteScaleJson(out_path, smoke ? "smoke" : "full", results, derived)) {
    return 2;
  }
  if (!out_path.empty()) {
    std::printf("wrote %s\n", out_path.c_str());
  }

  if (smoke && scale10k != nullptr && scale100k != nullptr) {
    if (scale10k->peak_rss_bytes > kSmokeRssBudget10k) {
      std::fprintf(stderr,
                   "FAIL: 10k-database scale config peaked at %.1f MiB "
                   "RSS, above its budget of %llu MiB\n",
                   scale10k->peak_rss_bytes / 1048576.0,
                   static_cast<unsigned long long>(kSmokeRssBudget10k >> 20));
      return 1;
    }
    if (proactive10k != nullptr &&
        proactive10k->peak_rss_bytes > kSmokeRssBudgetProactive10k) {
      std::fprintf(stderr,
                   "FAIL: proactive_10k peaked at %.1f MiB RSS, above its "
                   "budget of %llu MiB\n",
                   proactive10k->peak_rss_bytes / 1048576.0,
                   static_cast<unsigned long long>(
                       kSmokeRssBudgetProactive10k >> 20));
      return 1;
    }
    // Zero under sanitizers: not measured.
    const std::pair<const ScaleResult*, uint64_t> allocation_budgets[] = {
        {scale10k, kSmokeAllocationBudget10k},
        {proactive10k, kSmokeAllocationBudgetProactive10k},
        {durable10k, kSmokeAllocationBudgetDurable10k},
    };
    for (const auto& [r, budget] : allocation_budgets) {
      if (r != nullptr && r->allocations > budget) {
        std::fprintf(stderr,
                     "FAIL: %s made %llu allocations, above its budget "
                     "of %llu\n",
                     r->name.c_str(),
                     static_cast<unsigned long long>(r->allocations),
                     static_cast<unsigned long long>(budget));
        return 1;
      }
    }
    if (scale100k->events_per_sec() < kSmokeEventsPerSecFloor100k) {
      std::fprintf(stderr,
                   "FAIL: 100k-database scale config at %.0f events/s, "
                   "below the committed floor of %.0f\n",
                   scale100k->events_per_sec(), kSmokeEventsPerSecFloor100k);
      return 1;
    }
    if (scale100k->peak_rss_bytes > kSmokeRssBudget100k) {
      std::fprintf(stderr,
                   "FAIL: 100k-database scale config peaked at %llu MB "
                   "RSS, above the committed budget of %llu MB\n",
                   static_cast<unsigned long long>(
                       scale100k->peak_rss_bytes >> 20),
                   static_cast<unsigned long long>(
                       kSmokeRssBudget100k >> 20));
      return 1;
    }
    if (proactive_ratio10k < kSmokeProactiveRatioFloor10k) {
      std::fprintf(stderr,
                   "FAIL: proactive config at 10k databases runs at only "
                   "%.3fx the reactive scale config's events/s (floor "
                   "%.2fx)\n",
                   proactive_ratio10k, kSmokeProactiveRatioFloor10k);
      return 1;
    }
    if (durable10k != nullptr &&
        durable10k->resume_ticks_skipped < kSmokeSkippedFloorDurable10k) {
      std::fprintf(stderr,
                   "FAIL: durable_10k skipped %llu idle resume ticks, below "
                   "its committed %llu\n",
                   static_cast<unsigned long long>(
                       durable10k->resume_ticks_skipped),
                   static_cast<unsigned long long>(
                       kSmokeSkippedFloorDurable10k));
      return 1;
    }
    if (durable_ratio10k < kSmokeDurableRatioFloor10k) {
      std::fprintf(stderr,
                   "FAIL: durable control plane at 10k databases runs at "
                   "only %.3fx the proactive config's events/s (floor "
                   "%.2fx)\n",
                   durable_ratio10k, kSmokeDurableRatioFloor10k);
      return 1;
    }
  }
  return 0;
}

}  // namespace
}  // namespace prorp::bench

int main(int argc, char** argv) {
  auto args =
      prorp::bench::ParseBenchArgs(argc, argv, "BENCH_fleet_scale.json");
  if (!args) return 2;
  return prorp::bench::Run(args->smoke, args->out_path);
}
