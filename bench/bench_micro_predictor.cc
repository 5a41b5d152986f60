// Microbenchmarks of the next-activity prediction (Algorithm 4):
// the faithful SQL stored procedure (p/s x h range queries, the paper's
// production implementation whose latency Figure 10(c) reports) versus
// the vectorized FastPredictor the fleet simulator uses, across history
// sizes.
//
// Self-timed like bench_micro_storage: every call is timed on its own, so
// each case reports exact per-call p50/p95/p99 over enough calls that at
// least ten lie beyond p99.  Prints a table and, with --out, persists the
// same rows as JSON (BENCH_micro_predictor.json is the committed run).
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

template <typename Store>
void Fill(Store& store, int sessions_per_day) {
  for (int d = 1; d <= 28; ++d) {
    EpochSeconds day = kNow - Days(d);
    for (int s = 0; s < sessions_per_day; ++s) {
      EpochSeconds login = day + Hours(6) + s * Minutes(30);
      (void)store.InsertHistory(login, history::kEventLogin);
      (void)store.InsertHistory(login + Minutes(20),
                                history::kEventLogout);
    }
  }
}

/// Times kCalls predictions one at a time, after one untimed warm-up call.
MicroResult Measure(std::string name, const forecast::Predictor& predictor,
                    const history::HistoryStore& store) {
  // Folding every result into a sink keeps the calls observable.
  volatile int64_t sink = 0;
  sink = sink + predictor.PredictNextActivity(store, kNow)->start;
  Summary lat_us;
  Clock::time_point start = Clock::now();
  for (uint64_t i = 0; i < kCalls; ++i) {
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

MicroResult FaithfulSql(int sessions_per_day) {
  auto store = history::SqlHistoryStore::Open().value();
  Fill(*store, sessions_per_day);
  forecast::SlidingWindowPredictor predictor(PredictionConfig{});
  return Measure("faithful_sql_" + std::to_string(sessions_per_day) + "pd",
                 predictor, *store);
}

MicroResult FaithfulOverMemStore(int sessions_per_day) {
  history::MemHistoryStore store;
  Fill(store, sessions_per_day);
  forecast::SlidingWindowPredictor predictor(PredictionConfig{});
  return Measure("faithful_mem_" + std::to_string(sessions_per_day) + "pd",
                 predictor, store);
}

MicroResult Fast(int sessions_per_day) {
  history::MemHistoryStore store;
  Fill(store, sessions_per_day);
  forecast::FastPredictor predictor(PredictionConfig{});
  return Measure("fast_" + std::to_string(sessions_per_day) + "pd",
                 predictor, store);
}

MicroResult WeeklySeasonality() {
  history::MemHistoryStore store;
  Fill(store, 4);
  PredictionConfig cfg;
  cfg.seasonality = Weeks(1);
  cfg.prediction_horizon = Days(7);
  forecast::FastPredictor predictor(cfg);
  return Measure("fast_weekly_4pd", predictor, store);
}

int Run(const std::string& out_path) {
  PrintHeader("micro_predictor: next-activity prediction (Algorithm 4)",
              "prediction latency < 1 s and grows with history size "
              "(Figure 10(c)); the vectorized predictor is bit-identical");

  std::vector<MicroResult> results;
  for (int spd : {1, 8, 32}) results.push_back(FaithfulSql(spd));
  results.push_back(FaithfulOverMemStore(8));
  for (int spd : {1, 8, 32}) results.push_back(Fast(spd));
  results.push_back(WeeklySeasonality());

  for (const MicroResult& r : results) PrintMicroRow(r);

  if (!out_path.empty()) {
    if (!WriteMicroJson(out_path, "micro_predictor", "full", results, {})) {
      return 2;
    }
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace prorp::bench

int main(int argc, char** argv) {
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else {
      std::fprintf(stderr, "usage: %s [--out=PATH]\n", argv[0]);
      return 2;
    }
  }
  return prorp::bench::Run(out_path);
}
