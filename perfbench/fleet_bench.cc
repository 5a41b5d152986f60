// Untraced run of one fleet workload through sim::RunFleetSimulation, the
// end-to-end half of the benchmark.  Prints one JSON line:
//
//   {"ok": true, "run_s": ..., "setup_s": ..., "peak_rss_bytes": ...,
//    "counters": {...}, "qos_pct": ..., ..., "pending_failed": ...,
//    "incidents": ...}
//
// run_s is the wall time of the RunFleetSimulation call; setup_s runs from
// before the trace source is built to the opening of the last session
// cursor, which the simulator does right before its first event.  Each
// repetition runs in a fresh process, so the peak RSS is this run's own.
//
// Usage: fleet_bench --policy proactive|reactive --dbs N
//          [--warmup-days D] [--measure-days D] [--workload-seed S]
//          [--sim-seed S] [--journal-dir DIR]

#include <cstdio>
#include <filesystem>

#include "fleet_config.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  FleetArgs args;
  if (!ParseFleetArgs(argc, argv, &args)) return 2;
  if (!args.journal_dir.empty() && std::filesystem::exists(args.journal_dir)) {
    return PrintError("journal directory already exists: " + args.journal_dir);
  }

  Clock::time_point start = Clock::now();
  std::unique_ptr<prorp::workload::StreamingFleetSource> source =
      MakeSource(args);
  SetupClockSource timed_source(source.get());
  prorp::sim::SimOptions options = MakeOptions(args);
  Clock::time_point call = Clock::now();
  prorp::Result<prorp::sim::SimReport> report =
      prorp::sim::RunFleetSimulation(timed_source, options);
  Clock::time_point done = Clock::now();

  const bool journal_written =
      args.journal_dir.empty() ||
      std::filesystem::exists(args.journal_dir + "/journal.wal");
  const bool journal_removed = RemoveJournalDir(args.journal_dir);
  if (!report.ok()) return PrintError(report.status().ToString());
  if (!journal_written) return PrintError("durable run left no journal");
  if (!journal_removed) return PrintError("cannot remove journal directory");

  std::printf("{\"ok\": true, \"run_s\": %.9f, \"setup_s\": %.9f, "
              "\"peak_rss_bytes\": %llu, ",
              Seconds(done - call), Seconds(timed_source.last_open() - start),
              static_cast<unsigned long long>(PeakRssBytes()));
  PrintOutcomeFields(stdout, report->kpi, report->usage,
                     report->events_processed);
  std::printf(", \"pending_failed\": %llu, \"incidents\": %llu}\n",
              static_cast<unsigned long long>(report->pending_failed),
              static_cast<unsigned long long>(report->diagnostics.incidents));
  return 0;
}
