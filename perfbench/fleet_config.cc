#include "fleet_config.h"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "workload/region.h"

namespace perfbench {
namespace {

/// Monday 00:00 UTC, the anchor every fleet bench in the repository uses.
constexpr prorp::EpochSeconds kT0 = prorp::Days(1005);

prorp::EpochSeconds MeasureFrom(const FleetArgs& args) {
  return kT0 + prorp::Days(args.warmup_days);
}

prorp::EpochSeconds End(const FleetArgs& args) {
  return MeasureFrom(args) + prorp::Days(args.measure_days);
}

bool ParseU64(const char* text, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    return false;
  }
  *out = v;
  return true;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

bool ParseFleetArgs(int argc, char** argv, FleetArgs* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s: missing value\n", flag.c_str());
      return false;
    }
    const char* value = argv[++i];
    uint64_t n = 0;
    bool numeric = ParseU64(value, &n);
    if (flag == "--policy") {
      if (std::strcmp(value, "proactive") == 0) {
        args->mode = prorp::policy::PolicyMode::kProactive;
      } else if (std::strcmp(value, "reactive") == 0) {
        args->mode = prorp::policy::PolicyMode::kReactive;
      } else {
        std::fprintf(stderr, "--policy: proactive or reactive\n");
        return false;
      }
    } else if (flag == "--journal-dir") {
      args->journal_dir = value;
    } else if (!numeric) {
      std::fprintf(stderr, "%s: not a number: %s\n", flag.c_str(), value);
      return false;
    } else if (flag == "--dbs") {
      args->num_dbs = static_cast<size_t>(n);
    } else if (flag == "--warmup-days" && n <= 3650) {
      args->warmup_days = static_cast<int>(n);
    } else if (flag == "--measure-days" && n <= 3650) {
      args->measure_days = static_cast<int>(n);
    } else if (flag == "--workload-seed") {
      args->workload_seed = n;
    } else if (flag == "--sim-seed") {
      args->sim_seed = n;
    } else {
      std::fprintf(stderr, "unknown or out-of-range flag: %s %s\n",
                   flag.c_str(), value);
      return false;
    }
  }
  if (args->num_dbs == 0 || args->measure_days == 0) {
    std::fprintf(stderr, "--dbs and --measure-days must be positive\n");
    return false;
  }
  return true;
}

std::unique_ptr<prorp::workload::StreamingFleetSource> MakeSource(
    const FleetArgs& args) {
  return std::make_unique<prorp::workload::StreamingFleetSource>(
      prorp::workload::RegionEU1(), args.num_dbs, kT0, End(args),
      args.workload_seed, MeasureFrom(args));
}

prorp::sim::SimOptions MakeOptions(const FleetArgs& args) {
  prorp::sim::SimOptions options;
  options.mode = args.mode;
  options.measure_from = MeasureFrom(args);
  options.end = End(args);
  options.eviction_per_hour = prorp::workload::RegionEU1().eviction_per_hour;
  options.seed = args.sim_seed;
  options.telemetry = prorp::sim::SimOptions::Telemetry::kStreaming;
  options.use_lite_metadata = true;
  options.use_null_history =
      args.mode == prorp::policy::PolicyMode::kReactive;
  options.control_plane_journal_dir = args.journal_dir;
  // A durable plane runs with the transport: the one workload that
  // journals is also the one that sends every pre-warm over the wire.
  options.use_transport = !args.journal_dir.empty();
  options.num_threads = 1;
  return options;
}

uint64_t PeakRssBytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  long kb = -1;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb < 0 ? 0 : static_cast<uint64_t>(kb) * 1024;
}

bool RemoveJournalDir(const std::string& dir) {
  if (dir.empty()) return true;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return !ec && !std::filesystem::exists(dir, ec);
}

void PrintOutcomeFields(std::FILE* out, const prorp::telemetry::KpiReport& kpi,
                        const prorp::telemetry::TimeBreakdown& usage,
                        uint64_t events_processed) {
  std::fprintf(
      out,
      "\"counters\": {\"logins_total\": %llu, \"logins_available\": %llu, "
      "\"logins_reactive\": %llu, \"predictions\": %llu, "
      "\"proactive_resumes\": %llu, \"physical_pauses\": %llu, "
      "\"forced_evictions\": %llu, \"events_processed\": %llu}, "
      "\"qos_pct\": %.17g, \"idle_pct\": %.17g, \"idle_s\": %.17g, "
      "\"total_s\": %.17g, \"idle_proactive_correct_s\": %.17g, "
      "\"idle_proactive_wrong_s\": %.17g",
      static_cast<unsigned long long>(kpi.logins_total),
      static_cast<unsigned long long>(kpi.logins_available),
      static_cast<unsigned long long>(kpi.logins_reactive),
      static_cast<unsigned long long>(kpi.predictions),
      static_cast<unsigned long long>(kpi.proactive_resumes),
      static_cast<unsigned long long>(kpi.physical_pauses),
      static_cast<unsigned long long>(kpi.forced_evictions),
      static_cast<unsigned long long>(events_processed),
      kpi.QosAvailablePct(), kpi.IdleTotalPct(), usage.IdleTotal(),
      usage.Total(), usage.idle_proactive_correct, usage.idle_proactive_wrong);
}

int PrintError(const std::string& what) {
  std::printf("{\"ok\": false, \"error\": \"%s\"}\n", JsonEscape(what).c_str());
  return 1;
}

}  // namespace perfbench
