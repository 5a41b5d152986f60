#include "faults/torture.h"

#include <cstring>
#include <set>
#include <vector>

#include "common/random.h"
#include "faults/crash_points.h"
#include "history/sql_history_store.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/durable_tree.h"
#include "storage/page.h"
#include "storage/scrubber.h"

namespace prorp::faults {
namespace {

using storage::DurableTree;

std::vector<uint8_t> MakeValue(uint64_t op_index, int64_t key) {
  uint64_t v = op_index * 0x9e3779b97f4a7c15ULL ^ static_cast<uint64_t>(key);
  std::vector<uint8_t> out(8);
  std::memcpy(out.data(), &v, 8);
  return out;
}

DurableTree::Options TreeOptionsFor(const TortureOptions& options,
                                    const std::string& dir) {
  DurableTree::Options topt;
  topt.dir = dir;
  topt.value_width = 8;
  topt.fsync_each_append = options.fsync_each_append;
  topt.checkpoint_wal_bytes = options.checkpoint_wal_bytes;
  return topt;
}

// A subject of the crash-torture driver below: the store it opens on a
// directory, the recorded op stream (a deterministic function of the seed
// alone, so the counting pass and every torture pass replay the same
// stream), the reference model an op moves, the store's structural
// invariant check, and the contents collected back as a model.

/// The raw DurableTree workload.
struct TreeSubject {
  struct Op {
    enum Kind { kInsert, kUpdate, kDelete, kDeleteRange } kind = kInsert;
    int64_t key = 0;
    int64_t key2 = 0;  // hi for kDeleteRange
    std::vector<uint8_t> value;
  };
  using Store = DurableTree;
  using Model = std::map<int64_t, std::vector<uint8_t>>;
  static constexpr std::string_view kName = "tree";

  static Result<std::unique_ptr<Store>> Open(const TortureOptions& options,
                                             const std::string& dir) {
    return DurableTree::Open(TreeOptionsFor(options, dir));
  }

  static std::vector<Op> Ops(const TortureOptions& options) {
    Rng rng(options.seed * 0x9e3779b97f4a7c15ULL + 0xd1b54a32d192ed03ULL);
    std::vector<Op> ops;
    ops.reserve(options.num_ops);
    std::set<int64_t> live;
    const int64_t key_space =
        static_cast<int64_t>(options.num_ops) * 8 + 16;
    for (uint64_t i = 0; i < options.num_ops; ++i) {
      double roll = rng.NextDouble();
      Op op;
      if (!live.empty() && roll < options.delete_fraction) {
        auto it = live.begin();
        std::advance(it, rng.NextBelow(live.size()));
        if (rng.NextBool(0.25)) {
          op.kind = Op::kDeleteRange;
          op.key = *it;
          op.key2 = op.key + static_cast<int64_t>(rng.NextBelow(64));
          live.erase(live.lower_bound(op.key), live.upper_bound(op.key2));
        } else {
          op.kind = Op::kDelete;
          op.key = *it;
          live.erase(it);
        }
      } else if (!live.empty() &&
                 roll < options.delete_fraction + options.update_fraction) {
        auto it = live.begin();
        std::advance(it, rng.NextBelow(live.size()));
        op.kind = Op::kUpdate;
        op.key = *it;
        op.value = MakeValue(i, op.key);
      } else {
        op.kind = Op::kInsert;
        int64_t key = rng.NextInt(0, key_space);
        while (live.count(key)) key = rng.NextInt(0, key_space);
        op.key = key;
        op.value = MakeValue(i, key);
        live.insert(key);
      }
      ops.push_back(std::move(op));
    }
    return ops;
  }

  static Status Apply(Store* tree, const Op& op) {
    switch (op.kind) {
      case Op::kInsert:
        return tree->Insert(op.key, op.value.data());
      case Op::kUpdate:
        return tree->Update(op.key, op.value.data());
      case Op::kDelete:
        return tree->Delete(op.key);
      case Op::kDeleteRange:
        return tree->DeleteRange(op.key, op.key2).status();
    }
    return Status::InvalidArgument("unknown op kind");
  }

  static void ApplyModel(Model* model, const Op& op) {
    switch (op.kind) {
      case Op::kInsert:
      case Op::kUpdate:
        (*model)[op.key] = op.value;
        break;
      case Op::kDelete:
        model->erase(op.key);
        break;
      case Op::kDeleteRange:
        model->erase(model->lower_bound(op.key),
                     model->upper_bound(op.key2));
        break;
    }
  }

  static Status CheckInvariants(Store& tree) {
    return tree.tree().CheckInvariants();
  }

  static Result<Model> Collect(const Store& tree) {
    Model got;
    PRORP_RETURN_IF_ERROR(tree.ScanRange(
        INT64_MIN, INT64_MAX, [&](int64_t key, const uint8_t* value) {
          got[key] = std::vector<uint8_t>(value, value + 8);
          return true;
        }));
    return got;
  }
};

/// The SQL history-store workload: inserts with strictly increasing
/// timestamps plus periodic retention sweeps.
struct SqlSubject {
  struct Op {
    enum Kind { kInsert, kRetention } kind = kInsert;
    int64_t time = 0;    // kInsert
    int event_type = 0;  // kInsert
    int64_t now = 0;     // kRetention
    int64_t h = 0;       // kRetention window, seconds
  };
  using Store = history::SqlHistoryStore;
  using Model = std::map<int64_t, int>;  // time_snapshot -> event_type
  static constexpr std::string_view kName = "sql-history";

  static Result<std::unique_ptr<Store>> Open(const TortureOptions& options,
                                             const std::string& dir) {
    const DurableTree::Options tuning = TreeOptionsFor(options, "");
    return Store::Open(dir, &tuning);
  }

  static std::vector<Op> Ops(const TortureOptions& options) {
    Rng rng(options.seed * 0xbf58476d1ce4e5b9ULL + 0x94d049bb133111ebULL);
    std::vector<Op> ops;
    ops.reserve(options.num_ops);
    int64_t now = 1'000'000;
    for (uint64_t i = 0; i < options.num_ops; ++i) {
      now += rng.NextInt(1, 120);
      Op op;
      if (i > 0 && i % 97 == 0) {
        op.kind = Op::kRetention;
        op.now = now;
        // Retain roughly the most recent two thirds of the stream so each
        // sweep has something to delete (a real DeleteRange through SQL).
        op.h = (now - 1'000'000) * 2 / 3 + 1;
      } else {
        op.kind = Op::kInsert;
        op.time = now;
        op.event_type = rng.NextBool(0.5) ? 1 : 0;
      }
      ops.push_back(op);
    }
    return ops;
  }

  static Status Apply(Store* store, const Op& op) {
    if (op.kind == Op::kInsert) {
      return store->InsertHistory(op.time, op.event_type);
    }
    return store->DeleteOldHistory(op.h, op.now).status();
  }

  /// Mirrors SqlHistoryStore semantics: IF NOT EXISTS insert; retention
  /// keeps the oldest tuple and deletes everything strictly between it
  /// and the start of recent history.
  static void ApplyModel(Model* model, const Op& op) {
    if (op.kind == Op::kInsert) {
      model->emplace(op.time, op.event_type);
      return;
    }
    if (model->empty()) return;
    int64_t min_ts = model->begin()->first;
    int64_t history_start = op.now - op.h;
    if (min_ts >= history_start) return;
    model->erase(model->upper_bound(min_ts),
                 model->lower_bound(history_start));
  }

  static Status CheckInvariants(Store& store) {
    PRORP_ASSIGN_OR_RETURN(
        sql::Table * table,
        store.database()->GetTable("sys.pause_resume_history"));
    return table->durable_tree()->tree().CheckInvariants();
  }

  static Result<Model> Collect(const Store& store) {
    PRORP_ASSIGN_OR_RETURN(std::vector<history::HistoryTuple> tuples,
                           store.ReadAll());
    Model got;
    for (const history::HistoryTuple& t : tuples) {
      got[t.time_snapshot] = t.event_type;
    }
    return got;
  }
};

/// Replays `ops`, tracking the reference model of acknowledged operations
/// and (on crash) the candidate model including the in-flight op.
/// Returns an error only on an unexpected (non-Aborted) failure.
template <typename S>
Status Replay(typename S::Store* store, const std::vector<typename S::Op>& ops,
              typename S::Model* acked, typename S::Model* inflight,
              TortureResult* result) {
  for (uint64_t i = 0; i < ops.size(); ++i) {
    typename S::Model post = *acked;
    S::ApplyModel(&post, ops[i]);
    Status s = S::Apply(store, ops[i]);
    if (s.ok()) {
      *acked = std::move(post);
      ++result->acked_ops;
      continue;
    }
    if (s.code() == StatusCode::kAborted) {
      result->crashed = true;
      *inflight = std::move(post);
      return Status::OK();
    }
    return Status::Internal("torture " + std::string(S::kName) + " op " +
                            std::to_string(i) +
                            " failed unexpectedly: " + s.ToString());
  }
  return Status::OK();
}

/// Opens a fresh store in `dir` and replays the subject's op stream into
/// it; the store is dropped with no shutdown work (a simulated process
/// death when an armed point fired).
template <typename S>
Status ReplayFresh(const TortureOptions& options, const std::string& dir,
                   typename S::Model* acked, typename S::Model* inflight,
                   TortureResult* result) {
  PRORP_ASSIGN_OR_RETURN(auto store, S::Open(options, dir));
  return Replay<S>(store.get(), S::Ops(options), acked, inflight, result);
}

template <typename S>
Result<std::map<std::string, uint64_t>> Observe(const TortureOptions& options,
                                                const std::string& dir) {
  CrashPointRegistry& reg = CrashPointRegistry::Global();
  reg.Reset();
  reg.SetCounting(true);
  typename S::Model acked, inflight;
  TortureResult scratch;
  Status run = ReplayFresh<S>(options, dir, &acked, &inflight, &scratch);
  std::map<std::string, uint64_t> hits;
  for (std::string_view point : AllCrashPoints()) {
    hits[std::string(point)] = reg.hits(point);
  }
  reg.Reset();
  PRORP_RETURN_IF_ERROR(run);
  return hits;
}

template <typename S>
Result<TortureResult> Run(const TortureOptions& options,
                          const std::string& dir, std::string_view point,
                          uint64_t nth) {
  CrashPointRegistry& reg = CrashPointRegistry::Global();
  reg.Reset();
  Rng payload_rng(options.seed ^ 0x2545f4914f6cdd1dULL);
  reg.Arm(point, nth, payload_rng.NextU64());

  TortureResult result;
  result.crash_point = std::string(point);
  typename S::Model acked, inflight;
  Status run = ReplayFresh<S>(options, dir, &acked, &inflight, &result);
  reg.Reset();
  PRORP_RETURN_IF_ERROR(run);

  PRORP_ASSIGN_OR_RETURN(auto recovered, S::Open(options, dir));
  PRORP_RETURN_IF_ERROR(S::CheckInvariants(*recovered));
  PRORP_ASSIGN_OR_RETURN(typename S::Model got, S::Collect(*recovered));
  if (got != acked && !(result.crashed && got == inflight)) {
    return Status::Corruption(
        std::string(S::kName) + " recovery mismatch at crash point '" +
        result.crash_point + "': recovered " + std::to_string(got.size()) +
        " entries, expected " + std::to_string(acked.size()) +
        " (acked) or " + std::to_string(inflight.size()) + " (in-flight)");
  }
  result.recovered_entries = got.size();
  return result;
}

}  // namespace

Result<std::map<std::string, uint64_t>> ObserveCrashPoints(
    const TortureOptions& options, const std::string& dir) {
  return Observe<TreeSubject>(options, dir);
}

Result<std::map<std::string, uint64_t>> ObserveSqlCrashPoints(
    const TortureOptions& options, const std::string& dir) {
  return Observe<SqlSubject>(options, dir);
}

Result<TortureResult> RunCrashTorture(const TortureOptions& options,
                                      const std::string& dir,
                                      std::string_view point, uint64_t nth) {
  return Run<TreeSubject>(options, dir, point, nth);
}

Result<TortureResult> RunSqlCrashTorture(const TortureOptions& options,
                                         const std::string& dir,
                                         std::string_view point,
                                         uint64_t nth) {
  return Run<SqlSubject>(options, dir, point, nth);
}

Result<BitFlipSweepResult> RunBitFlipSweep(
    const BitFlipSweepOptions& options) {
  using storage::kPageHeaderSize;
  using storage::kPageSize;

  storage::InMemoryDiskManager disk;
  BitFlipSweepResult result;
  {
    storage::BufferPool pool(&disk, 128);
    PRORP_ASSIGN_OR_RETURN(auto tree, storage::BPlusTree::Create(&pool, 8));
    for (uint64_t i = 0; i < options.num_entries; ++i) {
      int64_t key = static_cast<int64_t>(i);
      std::vector<uint8_t> value = MakeValue(i, key);
      PRORP_RETURN_IF_ERROR(tree->Insert(key, value.data()));
    }
    PRORP_RETURN_IF_ERROR(pool.FlushAll());
    // The pool and tree go away here; the sealed image lives in `disk`.
  }

  uint8_t orig[kPageSize];
  uint8_t flipped[kPageSize];
  for (storage::PageId p = 0; p < disk.num_pages(); ++p) {
    ++result.pages;
    PRORP_RETURN_IF_ERROR(disk.Read(p, orig));
    std::vector<uint64_t> bits;
    for (uint64_t b = 0; b < kPageHeaderSize * 8; ++b) bits.push_back(b);
    Rng rng(options.seed ^ (0x9e3779b97f4a7c15ULL * (p + 1)));
    for (uint64_t i = 0; i < options.payload_bits_per_page; ++i) {
      bits.push_back(kPageHeaderSize * 8 +
                     rng.NextBelow((kPageSize - kPageHeaderSize) * 8));
    }
    for (uint64_t bit : bits) {
      std::memcpy(flipped, orig, kPageSize);
      flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      PRORP_RETURN_IF_ERROR(disk.Write(p, flipped));
      ++result.flips;
      PRORP_ASSIGN_OR_RETURN(storage::ScrubReport report,
                             storage::ScrubPages(&disk));
      bool exact = report.errors() == 1 && report.issues.size() == 1 &&
                   report.issues[0].page_id == p;
      bool fetch_failed;
      {
        storage::BufferPool probe(&disk, 4);
        fetch_failed = !probe.Fetch(p).ok();
      }
      if (exact && fetch_failed) {
        ++result.detected;
      } else if (report.errors() > 0) {
        ++result.mislocated;
      }
      PRORP_RETURN_IF_ERROR(disk.Write(p, orig));
    }
    PRORP_ASSIGN_OR_RETURN(storage::ScrubReport clean_report,
                           storage::ScrubPages(&disk));
    result.false_positives += clean_report.errors();
  }
  return result;
}

namespace {

DurableTree::Options CampaignTreeOptions(
    const BitFlipCampaignOptions& options, const std::string& dir,
    FaultPlan* plan) {
  DurableTree::Options topt;
  topt.dir = dir;
  topt.value_width = 8;
  topt.checkpoint_wal_bytes = options.checkpoint_wal_bytes;
  topt.buffer_pool_pages = options.buffer_pool_pages;
  topt.fault_plan = plan;
  return topt;
}

TortureOptions CampaignWorkloadOptions(const BitFlipCampaignOptions& options) {
  TortureOptions w;
  w.seed = options.seed;
  w.num_ops = options.num_ops;
  w.delete_fraction = options.delete_fraction;
  w.update_fraction = options.update_fraction;
  w.checkpoint_wal_bytes = options.checkpoint_wal_bytes;
  return w;
}

}  // namespace

Result<BitFlipCampaignResult> RunBitFlipCampaign(
    const BitFlipCampaignOptions& options, const std::string& dir) {
  using Model = TreeSubject::Model;
  BitFlipCampaignResult result;
  const std::vector<TreeSubject::Op> ops =
      TreeSubject::Ops(CampaignWorkloadOptions(options));

  // Counting pass: learn how many disk reads / writes the workload issues
  // so the scripted flips land inside the observed ranges.
  uint64_t reads = 0;
  uint64_t writes = 0;
  {
    FaultPlan plan(options.seed);
    PRORP_ASSIGN_OR_RETURN(
        auto tree, DurableTree::Open(
                       CampaignTreeOptions(options, dir + "/count", &plan)));
    Model acked, inflight;
    TortureResult scratch;
    PRORP_RETURN_IF_ERROR(Replay<TreeSubject>(tree.get(), ops, &acked,
                                              &inflight, &scratch));
    reads = plan.ops_seen(FaultOp::kDiskRead);
    writes = plan.ops_seen(FaultOp::kDiskWrite);
  }

  struct FlipCase {
    FaultOp op;
    uint64_t nth;
    uint64_t bit;
  };
  std::vector<FlipCase> cases;
  Rng rng(options.seed ^ 0xda942042e4dd58b5ULL);
  auto add_cases = [&](FaultOp op, uint64_t total) {
    if (total == 0) return;  // the workload never exercised this op
    for (uint64_t i = 0; i < options.cases_per_op; ++i) {
      uint64_t nth = 1 + rng.NextBelow(total);
      uint64_t bit =
          (i % 2 == 0)
              ? rng.NextBelow(storage::kPageHeaderSize * 8)
              : storage::kPageHeaderSize * 8 +
                    rng.NextBelow(
                        (storage::kPageSize - storage::kPageHeaderSize) * 8);
      cases.push_back({op, nth, bit});
    }
  };
  add_cases(FaultOp::kDiskRead, reads);
  add_cases(FaultOp::kDiskWrite, writes);

  for (size_t c = 0; c < cases.size(); ++c) {
    FaultPlan plan(options.seed);
    plan.FailNthWithArg(cases[c].op, cases[c].nth, FaultKind::kBitFlip,
                        cases[c].bit);
    std::string run_dir = dir + "/case" + std::to_string(c);
    PRORP_ASSIGN_OR_RETURN(
        auto tree,
        DurableTree::Open(CampaignTreeOptions(options, run_dir, &plan)));
    Model acked, inflight;
    TortureResult scratch;
    PRORP_RETURN_IF_ERROR(Replay<TreeSubject>(tree.get(), ops, &acked,
                                              &inflight, &scratch));
    if (scratch.crashed) {
      return Status::Internal("bit-flip case " + std::to_string(c) +
                              " aborted unexpectedly");
    }
    ++result.runs;
    result.acked_ops += scratch.acked_ops;
    result.flips_fired += plan.injected();
    // Zero acked-record loss, through whatever repairs the flip forced.
    PRORP_RETURN_IF_ERROR(tree->tree().CheckInvariants());
    PRORP_ASSIGN_OR_RETURN(Model got, TreeSubject::Collect(*tree));
    if (got != acked) {
      return Status::Corruption("bit-flip case " + std::to_string(c) +
                                " lost acked records");
    }
    // Catch flips still latent on the page store: the scrub must end
    // clean (repairing along the way), again without losing records.
    PRORP_ASSIGN_OR_RETURN(storage::ScrubReport report, tree->Scrub());
    if (!report.clean()) {
      return Status::Corruption("bit-flip case " + std::to_string(c) +
                                " did not scrub clean: " +
                                report.ToString());
    }
    PRORP_ASSIGN_OR_RETURN(got, TreeSubject::Collect(*tree));
    if (got != acked) {
      return Status::Corruption("bit-flip case " + std::to_string(c) +
                                " lost acked records during scrub repair");
    }
    const storage::IntegrityStats& integrity = tree->integrity_stats();
    result.corruption_detected += integrity.corruption_detected;
    result.corruption_repaired += integrity.corruption_repaired;
    result.corruption_quarantined += integrity.corruption_quarantined;
  }
  return result;
}

}  // namespace prorp::faults
