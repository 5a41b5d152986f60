// Microbenchmarks of the next-activity prediction (Algorithm 4):
// the faithful SQL stored procedure (p/s x h range queries, the paper's
// production implementation whose latency Figure 10(c) reports) versus
// the vectorized FastPredictor the fleet simulator uses, across history
// sizes.  The full-scan case is a history in which no window clears c,
// so selection reads every window of the horizon: the fleet's slowest
// predictions look like this, and the dense fills never reach it.  The
// fleet case cycles through 100 databases whose login counts are as
// bimodal as a fleet's: 97 read fewer than 50 logins, 3 read 448.
//
// Self-timed like bench_micro_storage: every call is timed on its own, so
// each case reports exact per-call p50/p95/p99 over enough calls that at
// least ten lie beyond p99.  Prints a table and, with --out, persists the
// same rows as JSON (BENCH_micro_predictor.json is the committed run).
// Before timing a history, checks that FastPredictor's prediction equals
// the faithful predictor's on it; exits 1 if any differs.
//
// Usage:
//   bench_micro_predictor [--out=PATH]

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/stats.h"
#include "forecast/fast_predictor.h"
#include "forecast/sliding_window_predictor.h"
#include "history/mem_history_store.h"
#include "history/sql_history_store.h"

namespace prorp::bench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr EpochSeconds kNow = Days(1004);

/// Calls per case: 1000 leaves ten samples beyond p99.
constexpr uint64_t kCalls = 1000;

/// `sessions_per_day` sessions, 30 minutes apart from 06:00, on each of
/// `days` days before kNow (1 = yesterday).
void Fill(history::HistoryStore& store, int sessions_per_day,
          const std::vector<int>& days) {
  for (int d : days) {
    EpochSeconds day = kNow - Days(d);
    for (int s = 0; s < sessions_per_day; ++s) {
      EpochSeconds login = day + Hours(6) + s * Minutes(30);
      (void)store.InsertHistory(login, history::kEventLogin);
      (void)store.InsertHistory(login + Minutes(20),
                                history::kEventLogout);
    }
  }
}

std::vector<int> AllDays() {
  std::vector<int> days;
  for (int d = 1; d <= 28; ++d) days.push_back(d);
  return days;
}

/// Activity on two of the 28 days: every window has at most 2/28 < c
/// seasons with activity, so no prediction and a full scan.
const std::vector<int> kTwoDays = {3, 17};

/// Times kCalls predictions one at a time, cycling through `stores`,
/// after one untimed warm-up call.
MicroResult Measure(std::string name, const forecast::Predictor& predictor,
                    const std::vector<const history::HistoryStore*>& stores) {
  // Folding every result into a sink keeps the calls observable.
  volatile int64_t sink = 0;
  sink = sink + predictor.PredictNextActivity(*stores[0], kNow)->start;
  Summary lat_us;
  Clock::time_point start = Clock::now();
  for (uint64_t i = 0; i < kCalls; ++i) {
    const history::HistoryStore& store = *stores[i % stores.size()];
    Clock::time_point t0 = Clock::now();
    Result<forecast::ActivityPrediction> p =
        predictor.PredictNextActivity(store, kNow);
    lat_us.Add(std::chrono::duration<double, std::micro>(Clock::now() - t0)
                   .count());
    sink = sink + (p.ok() ? p->start : -1);
  }
  MicroResult r;
  r.name = std::move(name);
  r.ops = static_cast<double>(kCalls);
  r.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  r.p50_us = lat_us.Percentile(0.50);
  r.p95_us = lat_us.Percentile(0.95);
  r.p99_us = lat_us.Percentile(0.99);
  return r;
}

/// One history and configuration the bench times.
struct Case {
  std::string name;  // suffix of the row names, e.g. "8pd"
  int sessions_per_day;
  std::vector<int> days;
  PredictionConfig config;
  bool time_sql;  // also time the faithful predictor over SQL
  bool time_mem;  // also time the faithful predictor in memory
};

/// Checks that FastPredictor over `mem` predicts what the faithful
/// predictor predicts over `mem` and, when given, over `sql`.
bool FastEqualsFaithful(const std::string& name, const PredictionConfig& cfg,
                        const history::HistoryStore& mem,
                        const history::HistoryStore* sql) {
  forecast::FastPredictor fast(cfg);
  forecast::SlidingWindowPredictor faithful(cfg);
  Result<forecast::ActivityPrediction> want =
      fast.PredictNextActivity(mem, kNow);
  bool equal = want.ok();
  for (const history::HistoryStore* store : {&mem, sql}) {
    if (store == nullptr) continue;
    Result<forecast::ActivityPrediction> got =
        faithful.PredictNextActivity(*store, kNow);
    equal = equal && got.ok() && *got == *want;
  }
  if (!equal) {
    std::fprintf(stderr, "FAIL: %s: fast and faithful predictions differ\n",
                 name.c_str());
  }
  return equal;
}

int Run(const std::string& out_path) {
  PrintHeader("micro_predictor: next-activity prediction (Algorithm 4)",
              "prediction latency < 1 s and grows with history size "
              "(Figure 10(c)); the vectorized predictor is bit-identical");

  PredictionConfig weekly;
  weekly.seasonality = Weeks(1);
  weekly.prediction_horizon = Days(7);
  const std::vector<Case> cases = {
      {"1pd", 1, AllDays(), PredictionConfig{}, true, false},
      {"8pd", 8, AllDays(), PredictionConfig{}, true, true},
      {"32pd", 32, AllDays(), PredictionConfig{}, true, false},
      {"weekly_4pd", 4, AllDays(), weekly, false, false},
      {"full_scan", 32, kTwoDays, PredictionConfig{}, false, true},
  };

  bool all_equal = true;
  std::vector<MicroResult> sql_rows;
  std::vector<MicroResult> mem_rows;
  std::vector<MicroResult> fast_rows;
  for (const Case& c : cases) {
    auto sql = history::SqlHistoryStore::Open().value();
    history::MemHistoryStore mem;
    Fill(*sql, c.sessions_per_day, c.days);
    Fill(mem, c.sessions_per_day, c.days);
    all_equal = FastEqualsFaithful(c.name, c.config, mem, sql.get()) &&
                all_equal;
    forecast::SlidingWindowPredictor faithful(c.config);
    if (c.time_sql) {
      sql_rows.push_back(
          Measure("faithful_sql_" + c.name, faithful, {sql.get()}));
    }
    if (c.time_mem) {
      mem_rows.push_back(Measure("faithful_mem_" + c.name, faithful, {&mem}));
    }
    fast_rows.push_back(Measure("fast_" + c.name,
                                forecast::FastPredictor(c.config), {&mem}));
  }

  // Fleet-shaped: one database in 34 logs in 16 times a day on all 28
  // days (448 logins read); the rest once a day on three days in four.
  std::vector<history::MemHistoryStore> fleet(100);
  std::vector<const history::HistoryStore*> fleet_stores;
  for (size_t i = 0; i < fleet.size(); ++i) {
    std::vector<int> days;
    for (int d = 1; d <= 28; ++d) {
      if ((d + static_cast<int>(i)) % 4 != 0) days.push_back(d);
    }
    if (i % 34 == 0) {
      Fill(fleet[i], 16, AllDays());
    } else {
      Fill(fleet[i], 1, days);
    }
    all_equal = FastEqualsFaithful("fleet_bimodal", PredictionConfig{},
                                   fleet[i], nullptr) &&
                all_equal;
    fleet_stores.push_back(&fleet[i]);
  }
  fast_rows.push_back(Measure("fast_fleet_bimodal",
                              forecast::FastPredictor(PredictionConfig{}),
                              fleet_stores));
  std::vector<MicroResult> results = sql_rows;
  results.insert(results.end(), mem_rows.begin(), mem_rows.end());
  results.insert(results.end(), fast_rows.begin(), fast_rows.end());

  for (const MicroResult& r : results) PrintMicroRow(r);

  if (!out_path.empty()) {
    if (!WriteMicroJson(out_path, "micro_predictor", "full", results, {})) {
      return 2;
    }
    std::printf("wrote %s\n", out_path.c_str());
  }
  return all_equal ? 0 : 1;
}

}  // namespace
}  // namespace prorp::bench

int main(int argc, char** argv) {
  auto args =
      prorp::bench::ParseBenchArgs(argc, argv, "", /*with_smoke=*/false);
  if (!args) return 2;
  return prorp::bench::Run(args->out_path);
}
