// The paper's evaluation (Figures 2, 3 and 6-12) and the design ablation,
// from one table of figure rows: each row names its fleet, its arms or
// sweep, the metrics it prints and its bands.  Prints every selected
// figure's tables and band checks; exits 1 if a band fails or an arm errs.
//   bench_paper [--figure=2|3|6..12|ablation] [--markdown=FILE]
// --markdown rewrites each `<!-- bench_paper:N -->` .. `<!-- /bench_paper:N
// -->` block in FILE with figure N's output.  All arms run in one pool sized
// by PRORP_NUM_THREADS; each fleet is built once, and arms with equal fleet,
// policy and variant share one run.  Output is byte-identical for any thread
// count, except Figure 10(c)'s wall-clock latency (stdout only).

#include <chrono>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>

#include "bench/bench_util.h"
#include "forecast/sliding_window_predictor.h"
#include "history/sql_history_store.h"

using namespace prorp;         // NOLINT: bench brevity
using namespace prorp::bench;  // NOLINT

namespace {

using policy::PolicyMode;
using sim::SimOptions;
using sim::SimReport;
using Reports = std::vector<const SimReport*>;
using K = const telemetry::KpiReport&;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr PolicyMode kReactive = PolicyMode::kReactive;
constexpr PolicyMode kProactive = PolicyMode::kProactive;

/// A check passes when every value lies in the closed [lo, hi].  A
/// tolerance also names the paper's band it replaces and the EXPERIMENTS.md
/// section that explains why.
struct Band {
  double lo = -kInf, hi = kInf;
  const char *paper = nullptr, *section = nullptr;
};

// Shape checks compare at the printed precision of 0.1.
constexpr Band kAbove{0.1, kInf}, kBelow{-kInf, -0.1};
constexpr Band kNonDecreasing{0, kInf}, kNonIncreasing{-kInf, 0};

// Known deviations.  Each bound is the measured value rounded outward to
// the next whole point (ratios: to the next hundredth).
constexpr char kFig6[] = "figure-6--validation-across-regions-eu1eu2us1us2";
constexpr char kFig7[] = "figure-7--validation-across-evaluation-days";
constexpr char kFig8[] = "figure-8--varying-window-size-18-h";
constexpr Band kShortGapIdleShare{1, 8, "~5",
                                  "figure-3--fragmentation-of-idle-time"};
constexpr Band kWrongProactiveIdle{5, 7, "1-4", kFig6};
constexpr Band kMondayQos{71, 90, "80-90", kFig7};
constexpr Band kMondayCorrectIdle{0, 5, "1-5", kFig7};
constexpr Band kWindowQosStep{-1, kInf, ">= 0", kFig8};
constexpr Band kWindowQosRise{2, 23, "~20", kFig8};
constexpr Band kMaxTuples{2920, kInf, "> 4000",
                          "figure-10--overhead-of-the-online-components"};
constexpr Band kResumeRatio{
    0.85, 2.5, "~2", "figures-1112--workflow-frequency-vs-operation-period"};

std::string Fmt(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", digits, v);
  return buf;
}

/// One figure's markdown tables and check lines, echoed to stdout and
/// collected as its EXPERIMENTS.md block.
struct Output {
  std::string figure;
  std::vector<std::string>* failures;
  std::string block = "";
  bool markdown = true;  // false: wall-clock output, stdout only
  bool in_checks = false;

  void Emit(const std::string& s) {
    std::fputs(s.c_str(), stdout);
    if (markdown) block += s;
  }
  void Row(const std::vector<std::string>& cells) {
    std::string s = "|";
    for (const std::string& c : cells) s += " " + c + " |";
    Emit(s + "\n");
  }
  void Table(const std::vector<std::string>& header) {
    Emit("\n");
    Row(header);
    Row(std::vector<std::string>(header.size(), "---"));
    in_checks = false;
  }
  void Line(bool ok, const std::string& line) {
    Emit((in_checks ? "- " : "\n- ") + std::string(ok ? "ok: " : "FAILED: ") +
         line + "\n");
    in_checks = true;
    if (!ok) failures->push_back("figure " + figure + ": " + line);
  }
  void Check(const std::string& what, const std::vector<double>& values,
             const Band& band, int digits = 1) {
    auto [lo, hi] = std::minmax_element(values.begin(), values.end());
    char range[192];
    std::snprintf(range, sizeof range,
                  band.paper ? ", tolerance [%g, %g] (paper %s; "
                               "[why](EXPERIMENTS.md#%s))"
                             : ", band [%g, %g]",
                  band.lo, band.hi, band.paper, band.section);
    Line(*lo >= band.lo && *hi <= band.hi,
         what + " = " + Fmt(*lo, digits) +
             (values.size() > 1 ? ".." + Fmt(*hi, digits) : "") + range);
  }
};

struct Metric {
  const char* header;
  int digits;
  double (*get)(K);
};
constexpr Metric kQos{"QoS %", 1, [](K k) { return k.QosAvailablePct(); }};
constexpr Metric kIdle{"idle %", 1, [](K k) { return k.IdleTotalPct(); }};
constexpr Metric kLogical{"logical %", 1,
                          [](K k) { return k.idle_logical_pct; }};
constexpr Metric kWrong{"wrong %", 1,
                        [](K k) { return k.idle_proactive_wrong_pct; }};
constexpr Metric kCorrect{"correct %", 1,
                          [](K k) { return k.idle_proactive_correct_pct; }};
constexpr Metric kResumes{"resumes", 0,
                          [](K k) { return double(k.proactive_resumes); }};
constexpr Metric kUsed{"used %", 1, [](K k) { return k.active_pct; }};
constexpr Metric kSaved{"saved %", 1, [](K k) { return k.reclaimed_pct; }};
constexpr Metric kUnavailable{"unavailable %", 2,
                              [](K k) { return k.unavailable_pct; }};

/// The metric over r[first], r[first + stride], ...
std::vector<double> Values(const Reports& r, const Metric& m, size_t first = 0,
                           size_t stride = 1) {
  std::vector<double> out;
  for (size_t i = first; i < r.size(); i += stride) {
    out.push_back(m.get(r[i]->kpi));
  }
  return out;
}

/// Differences between neighbours, for monotonicity checks.
std::vector<double> Steps(const std::vector<double>& v) {
  std::vector<double> out;
  for (size_t i = 1; i < v.size(); ++i) out.push_back(v[i] - v[i - 1]);
  return out;
}

struct Fleet {
  std::string region;  // an AllRegions() name, or Figure 2's business db
  size_t dbs;
  int eval_days;
  uint64_t seed = 2024;

  std::string Key() const {
    return region + "/" + std::to_string(dbs) + "x" +
           std::to_string(eval_days) + "d/" + std::to_string(seed);
  }
};

FleetSetup BuildFleet(const Fleet& fleet) {
  for (const workload::RegionProfile& p : workload::AllRegions()) {
    if (p.name == fleet.region) {
      return MakeFleet(p, fleet.dbs, fleet.eval_days, fleet.seed);
    }
  }
  // Any other name: Figure 2's one weekday business database.
  FleetSetup setup;
  setup.profile = workload::RegionEU1();
  setup.profile.eviction_per_hour = 0;  // the figure has no node pressure
  setup.end = kMeasureFrom + Days(fleet.eval_days);
  workload::DbTrace trace;
  trace.pattern = workload::PatternType::kDailyBusiness;
  for (EpochSeconds day = kT0; day < setup.end; day += Days(1)) {
    if (IsWeekend(day)) continue;
    trace.sessions.push_back({day + Hours(9), day + Hours(12)});
    trace.sessions.push_back({day + Hours(13), day + Hours(17)});
  }
  trace.created_at = trace.sessions.front().start;
  setup.traces = {trace};
  return setup;
}

struct PaperArm {
  std::vector<std::string> cells;  // the arm's label cells in its table
  Fleet fleet;
  PolicyMode mode;
  std::string variant = "";  // names what `tweak` changes from Table 1
  std::function<void(SimOptions&)> tweak = nullptr;

  std::string Key() const {
    return fleet.Key() + " " + std::string(policy::PolicyModeName(mode)) +
           " " + variant;
  }
};

struct Figure {
  std::string id;  // --figure value and markdown marker
  const char* title;
  std::vector<PaperArm> arms;
  // One table row per arm: its label cells, then these metrics.
  std::vector<std::string> labels;
  std::vector<Metric> metrics;
  // Further tables and the band checks, given the arms' reports in order.
  void (*bands)(const Reports&, Output&);
};

/// Figures 6/7: the paper's bands over (reactive, proactive) report pairs.
void PolicyBands(const std::string& who, const Reports& r, Output& out,
                 const Band& qos = {80, 90}, const Band& correct = {1, 5}) {
  out.Check(who + "reactive QoS %", Values(r, kQos, 0, 2), {60, 68});
  out.Check(who + "reactive idle %", Values(r, kIdle, 0, 2), {5, 12});
  out.Check(who + "proactive QoS %", Values(r, kQos, 1, 2), qos);
  out.Check(who + "proactive idle %", Values(r, kIdle, 1, 2), {7, 14});
  out.Check(who + "proactive logical idle %", Values(r, kLogical, 1, 2),
            {3, 7});
  out.Check(who + "proactive correct-proactive idle %",
            Values(r, kCorrect, 1, 2), correct);
}

void Fig2(const Reports& r, Output& out) {
  // The optimal policy of Figure 2(c): allocation == demand.
  const double active = r[2]->kpi.active_pct + r[2]->kpi.unavailable_pct;
  out.Row({"optimal (analytic)", Fmt(active, 1), Fmt(0, 1),
           Fmt(100.0 - active, 1), Fmt(0, 2)});
  const std::vector<double> idle = Values(r, kIdle);
  out.Check("fixed idle % minus reactive idle %", {idle[0] - idle[1]}, kAbove);
  out.Check("reactive idle % minus proactive idle %", {idle[1] - idle[2]},
            kAbove);
  out.Check("proactive unavailable %", Values({r[2]}, kUnavailable), {0, 0}, 2);
}

void Fig3(const Reports&, Output& out) {
  const auto traces = workload::GenerateFleet(workload::RegionEU1(), 8000,
                                              kT0, kT0 + Days(60), 2024);
  const workload::GapStats gaps = workload::ComputeGapStats(traces);
  const double short_count = 100.0 * gaps.short_gap_count_fraction;
  const double short_idle = 100.0 * gaps.short_gap_duration_fraction;
  out.Table({"idle intervals", "databases", "< 1 h (% of intervals)",
             "< 1 h (% of idle time)", "<= l = 7 h (% of intervals)"});
  out.Row({std::to_string(gaps.gap_count), std::to_string(traces.size()),
           Fmt(short_count, 1), Fmt(short_idle, 1),
           Fmt(100.0 * gaps.within_l_count_fraction, 1)});
  out.Table({"idle interval <=", "% of intervals"});
  const std::vector<double> sorted = gaps.gap_durations.Sorted();
  for (DurationSeconds b : {Minutes(5), Minutes(15), Minutes(30), Hours(1),
                            Hours(2), Hours(7), Hours(24), Days(7)}) {
    const double below =
        std::lower_bound(sorted.begin(), sorted.end(), b) - sorted.begin();
    out.Row({FormatDuration(b), Fmt(100.0 * below / sorted.size(), 1)});
  }
  out.Check("(a) idle intervals < 1 h, %", {short_count}, {69, 75});
  out.Check("(b) their share of idle time, %", {short_idle},
            kShortGapIdleShare);
}

void Fig6(const Reports& r, Output& out) {
  PolicyBands("", r, out);
  out.Check("proactive wrong-proactive idle %", Values(r, kWrong, 1, 2),
            kWrongProactiveIdle);
}

void Fig7(const Reports& r, Output& out) {
  PolicyBands("day 1 ", {r[0], r[1]}, out, kMondayQos, kMondayCorrectIdle);
  PolicyBands("day 2-4 ", Reports(r.begin() + 2, r.end()), out);
}

void Fig8(const Reports& r, Output& out) {
  const std::vector<double> qos = Values(r, kQos);
  out.Check("idle % step per +1 h of w", Steps(Values(r, kIdle)),
            kNonDecreasing);
  out.Check("QoS % step per +1 h of w", Steps(qos), kWindowQosStep);
  out.Check("QoS % rise from w = 1 h to 8 h", {qos.back() - qos.front()},
            kWindowQosRise);
}

void Fig9(const Reports& r, Output& out) {
  // The last arm is the reactive baseline on the same fleet.
  std::vector<double> qos = Values(r, kQos), idle = Values(r, kIdle);
  const double reactive = qos.back();
  qos.pop_back();
  idle.pop_back();
  out.Check("QoS % step per +0.1 of c", Steps(qos), kNonIncreasing);
  out.Check("idle % step per +0.1 of c", Steps(idle), kNonIncreasing);
  out.Check("lowest QoS % minus reactive QoS %",
            {*std::min_element(qos.begin(), qos.end()) - reactive}, kBelow);
}

/// Figure 10(c): wall-clock latency of one next-activity prediction by the
/// faithful SQL stored procedure over the B+tree-backed history table, for
/// 60 databases spanning 1-32 sessions/day.  Each trial owns an Rng forked
/// up front, so the histories do not depend on PRORP_NUM_THREADS.
Result<Summary> PredictionLatencyMs() {
  const PredictionConfig cfg;  // Table 1 defaults
  Rng base(17);
  std::vector<std::function<Result<double>()>> jobs;
  for (int trial = 0; trial < 60; ++trial) {
    jobs.emplace_back([&cfg, rng = base.Fork()]() mutable -> Result<double> {
      PRORP_ASSIGN_OR_RETURN(auto store, history::SqlHistoryStore::Open());
      // Sample a history size profile: light, typical, heavy, worst-case.
      int sessions_per_day = 1 << rng.NextInt(0, 6);  // 1..32
      // Predictions fire at arbitrary times of day; the scan length (how
      // many sub-threshold windows it slides past) dominates the latency.
      EpochSeconds now = kT0 + rng.NextInt(0, Days(1) - 1);
      for (int d = 1; d <= 28; ++d) {
        EpochSeconds day = StartOfDay(now) - Days(d);
        for (int s = 0; s < sessions_per_day; ++s) {
          EpochSeconds login = day + Hours(6) + s * Minutes(30) +
                               rng.NextInt(0, Minutes(20));
          (void)store->InsertHistory(login, history::kEventLogin);
          (void)store->InsertHistory(login + Minutes(25),
                                     history::kEventLogout);
        }
      }
      forecast::SlidingWindowPredictor predictor(cfg);
      const auto t0 = std::chrono::steady_clock::now();
      PRORP_RETURN_IF_ERROR(
          predictor.PredictNextActivity(*store, now).status());
      return std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - t0)
          .count();
    });
  }
  Summary latency_ms;
  for (Result<double>& r : common::RunOnPool<Result<double>>(
           std::move(jobs), common::ThreadPool::DefaultThreads())) {
    if (!r.ok()) return r.status();
    latency_ms.Add(r.value());
  }
  return latency_ms;
}

void Fig10(const Reports& r, Output& out) {
  const Summary& tuples = r[0]->history_tuples;
  Summary kb;
  for (double b : r[0]->history_bytes.Sorted()) kb.Add(b / 1024.0);
  const std::vector<CdfPoint> tuples_cdf = BuildCdf(tuples, 10);
  const std::vector<CdfPoint> kb_cdf = BuildCdf(kb, 10);
  out.Table({"CDF %", "(a) tuples per history", "(b) history KB"});
  for (size_t i = 0; i < tuples_cdf.size(); ++i) {
    out.Row({Fmt(100.0 * tuples_cdf[i].cumulative_fraction, 1),
             Fmt(tuples_cdf[i].value, 0), Fmt(kb_cdf[i].value, 2)});
  }
  out.Row({"mean", Fmt(tuples.Mean(), 0), Fmt(kb.Mean(), 1)});
  out.Check("(a) mean tuples", {tuples.Mean()}, {0, 500}, 0);
  out.Check("(a) max tuples", {tuples.Max()}, kMaxTuples, 0);
  out.Check("(b) mean KB", {kb.Mean()}, {0, 7});
  out.Check("(b) max KB", {kb.Max()}, {0, 74});

  out.markdown = false;
  Result<Summary> latency = PredictionLatencyMs();
  if (!latency.ok()) return out.Line(false, latency.status().ToString());
  out.Table({"CDF %", "(c) prediction latency, ms"});
  for (const CdfPoint& p : BuildCdf(*latency, 10)) {
    out.Row({Fmt(100.0 * p.cumulative_fraction, 1), Fmt(p.value, 2)});
  }
  out.Row({"mean", Fmt(latency->Mean(), 2)});
  out.Check("(c) max prediction latency, ms", {latency->Max()}, {0, 1000}, 2);
}

const std::vector<double> kPeriodsMin = {1, 2, 5, 10, 15};

/// Figures 11/12: box plot of `kind` events per `minutes`-long interval.
BoxPlot PerInterval(const SimReport& r, telemetry::EventKind kind,
                    double minutes) {
  return telemetry::WorkflowFrequency(r.recorder, kind, Minutes(int(minutes)),
                                      r.measure_from, r.measure_end);
}

void Fig11(const Reports& r, Output& out) {
  // Arm 0 is the reactive baseline; arms 1.. sweep the operation period.
  out.Table({"period", "proactive resumes/iteration (gray)",
             "reactive resumes/interval (white)"});
  std::vector<double> gray_max;
  BoxPlot white;
  for (size_t i = 0; i < kPeriodsMin.size(); ++i) {
    const BoxPlot gray = r[i + 1]->resumed_per_iteration.ToBoxPlot();
    white = PerInterval(*r[0], telemetry::EventKind::kLoginReactive,
                        kPeriodsMin[i]);
    out.Row({Fmt(kPeriodsMin[i], 0) + " min", gray.ToString(),
             white.ToString()});
    gray_max.push_back(gray.max);
  }
  out.Check("max resumes/iteration step per longer period", Steps(gray_max),
            kNonDecreasing, 0);
  out.Check("proactive/reactive max at 15 min", {gray_max.back() / white.max},
            kResumeRatio, 2);
}

void Fig12(const Reports& r, Output& out) {
  const uint64_t proactive = r[0]->kpi.physical_pauses;
  const uint64_t reactive = r[1]->kpi.physical_pauses;
  const double ratio = double(proactive) / double(reactive);
  out.Table({"physical pauses", "proactive", "reactive", "ratio"});
  out.Row({"total", std::to_string(proactive), std::to_string(reactive),
           Fmt(ratio, 2)});
  out.Table({"interval", "proactive pauses (gray)", "reactive pauses (white)"});
  const auto kind = telemetry::EventKind::kPhysicalPause;
  for (double minutes : kPeriodsMin) {
    out.Row({Fmt(minutes, 0) + " min",
             PerInterval(*r[0], kind, minutes).ToString(),
             PerInterval(*r[1], kind, minutes).ToString()});
  }
  out.Check("proactive/reactive total physical pauses", {ratio}, {1.5, 2.5},
            2);
}

void Ablation(const Reports& r, Output& out) {
  // Arm order: reactive, full proactive, then one variant per mechanism.
  std::vector<double> qos = Values(r, kQos);
  const double full = qos[1], no_resume_op = qos[3] - qos[0];
  qos.erase(qos.begin() + 1);
  for (double& q : qos) q -= full;
  out.Check("each variant's QoS % minus full proactive", qos, kBelow);
  out.Check("no proactive resume op QoS % minus reactive", {no_resume_op},
            kBelow);
}

/// One proactive arm per value.  The Table 1 default gets the empty
/// variant, so it shares the default arm's run with the other figures.
std::vector<PaperArm> Sweep(const Fleet& fleet, const std::string& knob,
                            const std::vector<double>& values, double def,
                            int digits, void (*set)(SimOptions&, double)) {
  std::vector<PaperArm> arms;
  for (double v : values) {
    const std::string label = Fmt(v, digits);
    arms.push_back({{label}, fleet, kProactive, v == def ? "" : knob + label,
                    [set, v](SimOptions& o) { set(o, v); }});
  }
  return arms;
}

/// The figure table, in the paper's order.
std::vector<Figure> Figures() {
  const Fleet eu1{"EU1", 4000, 4}, eu1_2d{"EU1", 4000, 2};
  const Fleet ablation{"EU1", 3000, 3}, business_db{"business-db", 1, 7};
  const PredictionConfig prediction;
  const ControlPlaneConfig control_plane;
  std::vector<PaperArm> fig2, fig6, fig7;
  for (PolicyMode m : {PolicyMode::kAlwaysOn, kReactive, kProactive}) {
    const std::string name(policy::PolicyModeName(m));
    fig2.push_back({{m == PolicyMode::kAlwaysOn ? "fixed" : name},
                    business_db, m});
  }
  for (int i = 0; i < 8; ++i) {
    const PolicyMode m = i % 2 == 0 ? kReactive : kProactive;
    const std::string name(policy::PolicyModeName(m));
    const Fleet region{workload::AllRegions()[i / 2].name, 4000, 4};
    const std::string day = "day " + std::to_string(i / 2 + 1);
    fig6.push_back({{region.region, name}, region, m});
    fig7.push_back({{day, name}, eu1, m, day, [i](SimOptions& o) {
                      o.measure_from = kMeasureFrom + Days(i / 2);
                      o.end = kMeasureFrom + Days(i / 2 + 1);
                    }});
  }
  std::vector<PaperArm> fig8 = Sweep(
      eu1, "w=", {1, 2, 3, 4, 5, 6, 7, 8},
      double(prediction.window_size) / Hours(1), 0,
      [](SimOptions& o, double w) {
        o.config.policy.prediction.window_size = Hours(int(w));
      });
  std::vector<PaperArm> fig9 = Sweep(
      eu1, "c=", {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8},
      prediction.confidence_threshold, 1, [](SimOptions& o, double c) {
        o.config.policy.prediction.confidence_threshold = c;
      });
  fig9.push_back({{"reactive"}, eu1, kReactive});
  std::vector<PaperArm> fig11 = Sweep(
      eu1_2d, "period=", kPeriodsMin,
      double(control_plane.resume_operation_period) / Minutes(1), 0,
      [](SimOptions& o, double m) {
        o.config.control_plane.resume_operation_period = Minutes(int(m));
      });
  fig11.insert(fig11.begin(), PaperArm{{}, eu1_2d, kReactive});
  auto variant = [&](const char* name, void (*tweak)(SimOptions&)) {
    return PaperArm{{name}, ablation, kProactive, name, tweak};
  };
  const std::vector<Metric> split = {kQos, kIdle, kLogical, kWrong, kCorrect};
  const std::vector<Metric> sweep = {kQos, kIdle, kWrong, kResumes};
  return {
      {"2", "Figure 2: resource allocation policies (one database)", fig2,
       {"policy"}, {kUsed, kIdle, kSaved, kUnavailable}, Fig2},
      {"3", "Figure 3: fragmentation of idle time (2 months, EU1)", {}, {},
       {}, Fig3},
      {"6", "Figure 6: validation across regions (4 eval days)", fig6,
       {"region", "policy"}, split, Fig6},
      {"7", "Figure 7: validation across evaluation days (EU1)", fig7,
       {"day", "policy"}, split, Fig7},
      {"8", "Figure 8: varying window size (hours)", fig8, {"w (h)"}, sweep,
       Fig8},
      {"9", "Figure 9: varying confidence of prediction", fig9, {"c"}, sweep,
       Fig9},
      {"10", "Figure 10: overhead of the proactive policy",
       {{{}, eu1, kProactive}}, {}, {}, Fig10},
      {"11", "Figure 11: frequency of resume workflows (per iteration)",
       fig11, {}, {}, Fig11},
      {"12", "Figure 12: frequency of reclamation workflows (per interval)",
       {{{}, eu1_2d, kProactive}, {{}, eu1_2d, kReactive}}, {}, {}, Fig12},
      {"ablation", "Ablation: contribution of each ProRP design choice (EU1)",
       {{{"reactive baseline"}, ablation, kReactive},
        {{"proactive (full)"}, ablation, kProactive},
        variant("literal ELSE BREAK (Alg 4 as printed)",
                [](SimOptions& o) {
                  o.config.policy.prediction.literal_break = true;
                }),
        variant("no proactive resume op",
                [](SimOptions& o) { o.proactive_resume_enabled = false; }),
        variant("no pre-warm restore after eviction",
                [](SimOptions& o) {
                  o.config.policy.eviction_restore_delay = 0;
                }),
        variant("weekly seasonality (horizon 1d)",
                [](SimOptions& o) {
                  o.config.policy.prediction.seasonality = Weeks(1);
                  o.config.policy.prediction.prediction_horizon = Days(1);
                })},
       {"variant"}, sweep, Ablation},
  };
}

/// Replaces each figure's marker block in the file at `path`.
void RewriteMarkdown(const std::string& path,
                     const std::map<std::string, std::string>& blocks,
                     std::vector<std::string>& failures) {
  std::ifstream in(path);
  if (!in) return failures.push_back("cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  std::string doc = text.str();
  for (const auto& [id, block] : blocks) {
    const std::string open = "<!-- bench_paper:" + id + " -->";
    const size_t begin = doc.find(open);
    const size_t end = doc.find("<!-- /bench_paper:" + id + " -->", begin);
    if (end == std::string::npos) {
      failures.push_back(path + " has no bench_paper:" + id + " block");
    } else {
      doc.replace(begin + open.size(), end - begin - open.size(),
                  "\n" + block + "\n");
    }
  }
  std::ofstream out(path);
  if (!(out << doc).flush()) failures.push_back("cannot write " + path);
}

}  // namespace

int main(int argc, char** argv) {
  std::string only, markdown;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--figure=", 0) == 0) {
      only = arg.substr(9);
    } else if (arg.rfind("--markdown=", 0) == 0) {
      markdown = arg.substr(11);
    } else {
      std::fprintf(stderr, "usage: %s [--figure=N] [--markdown=FILE]\n",
                   argv[0]);
      return 2;
    }
  }
  std::vector<Figure> figures = Figures();
  std::erase_if(figures,
                [&](const Figure& f) { return !only.empty() && f.id != only; });
  if (figures.empty()) {
    std::fprintf(stderr, "unknown figure %s\n", only.c_str());
    return 2;
  }

  // One fleet per (region, dbs, days, seed) and one run per distinct arm.
  std::map<std::string, FleetSetup> fleets;
  std::map<std::string, size_t> run_of;
  std::vector<Arm> runs;
  for (const Figure& fig : figures) {
    for (const PaperArm& a : fig.arms) {
      auto [fleet, fresh] = fleets.try_emplace(a.fleet.Key());
      if (fresh) fleet->second = BuildFleet(a.fleet);
      if (!run_of.emplace(a.Key(), runs.size()).second) continue;
      runs.push_back({a.Key(), &fleet->second.traces,
                      MakeOptions(fleet->second, a.mode)});
      if (a.tweak) a.tweak(runs.back().options);
    }
  }
  const std::vector<Result<SimReport>> results = RunArms(runs);

  std::vector<std::string> failures;
  std::map<std::string, std::string> blocks;
  for (const Figure& fig : figures) {
    std::printf("== %s\n", fig.title);
    Output out{fig.id, &failures};
    Reports reports;
    for (const PaperArm& a : fig.arms) {
      const Result<SimReport>& r = results[run_of.at(a.Key())];
      if (r.ok()) reports.push_back(&*r);
      if (!r.ok()) out.Line(false, a.Key() + ": " + r.status().ToString());
    }
    if (reports.size() < fig.arms.size()) continue;
    std::vector<std::string> header = fig.labels;
    for (const Metric& m : fig.metrics) header.push_back(m.header);
    if (!fig.metrics.empty()) out.Table(header);
    for (size_t i = 0; i < fig.arms.size() && !fig.metrics.empty(); ++i) {
      std::vector<std::string> cells = fig.arms[i].cells;
      for (const Metric& m : fig.metrics) {
        cells.push_back(Fmt(m.get(reports[i]->kpi), m.digits));
      }
      out.Row(cells);
    }
    fig.bands(reports, out);
    blocks[fig.id] = out.block;
    std::printf("\n");
  }
  if (!markdown.empty()) RewriteMarkdown(markdown, blocks, failures);
  for (const std::string& f : failures) std::printf("FAILED %s\n", f.c_str());
  return failures.empty() ? 0 : 1;
}
