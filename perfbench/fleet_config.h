#ifndef PERFBENCH_FLEET_CONFIG_H_
#define PERFBENCH_FLEET_CONFIG_H_

// What fleet_bench and fleet_trace share: the command-line description of
// one workload run, the inputs and SimOptions built from it, and the
// JSON fields both programs print so run.py can compare them.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>

#include "sim/fleet_simulator.h"
#include "workload/trace_source.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// One workload run, as perfbench/run.py passes it on the command line.
struct FleetArgs {
  prorp::policy::PolicyMode mode = prorp::policy::PolicyMode::kProactive;
  size_t num_dbs = 0;
  int warmup_days = 28;
  int measure_days = 32;
  /// Seeds the trace source (which databases exist, what they do).
  uint64_t workload_seed = 2024;
  /// Seeds the simulation itself (eviction hazards).
  uint64_t sim_seed = 7;
  /// Non-empty: durable control plane journaling into this directory,
  /// which must not exist yet, with pre-warms sent over the transport;
  /// the program removes the directory when done.
  std::string journal_dir;
};

/// Parses --policy, --dbs, --warmup-days, --measure-days, --workload-seed,
/// --sim-seed and --journal-dir.  Prints the problem and
/// returns false on bad input.
bool ParseFleetArgs(int argc, char** argv, FleetArgs* args);

/// The region trace of the run: EU1, streamed database by database.
std::unique_ptr<prorp::workload::StreamingFleetSource> MakeSource(
    const FleetArgs& args);

/// Serial, streaming-telemetry, lite-metadata options with EU1's
/// evictions; reactive runs share a null history store.
prorp::sim::SimOptions MakeOptions(const FleetArgs& args);

/// A trace source that forwards to another and notes when the last cursor
/// was opened: the simulator opens every cursor before its first event,
/// so that instant closes the run's set-up phase.
class SetupClockSource final : public prorp::workload::TraceSource {
 public:
  explicit SetupClockSource(const prorp::workload::TraceSource* inner)
      : inner_(inner) {}

  size_t num_dbs() const override { return inner_->num_dbs(); }

  std::unique_ptr<prorp::workload::SessionCursor> Open(
      uint32_t db_id) const override {
    std::unique_ptr<prorp::workload::SessionCursor> cursor =
        inner_->Open(db_id);
    last_open_ = Clock::now();
    return cursor;
  }

  Clock::time_point last_open() const { return last_open_; }

 private:
  const prorp::workload::TraceSource* inner_;
  mutable Clock::time_point last_open_{};
};

inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

/// Peak resident set of this process (VmHWM), bytes; 0 if unreadable.
uint64_t PeakRssBytes();

/// Removes a run's journal directory; false if anything is left behind.
bool RemoveJournalDir(const std::string& dir);

/// Prints the fields run.py checks for equality between repeats and
/// between the untraced run and the traced replay:
///   "counters": {...}, "qos_pct": x, "idle_pct": y, "idle_s": i,
///   "total_s": t, "idle_proactive_correct_s": a, "idle_proactive_wrong_s": b
/// (no surrounding braces).
void PrintOutcomeFields(std::FILE* out, const prorp::telemetry::KpiReport& kpi,
                        const prorp::telemetry::TimeBreakdown& usage,
                        uint64_t events_processed);

/// Prints {"ok": false, "error": "..."} and returns the exit code 1.
int PrintError(const std::string& what);

}  // namespace perfbench

#endif  // PERFBENCH_FLEET_CONFIG_H_
