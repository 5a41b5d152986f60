// Microbenchmarks of the storage substrate hot path: CRC32 (slice-by-8 vs
// the byte-at-a-time reference), the clustered B+tree behind
// sys.pause_resume_history, the SQL history insert, and the WAL — buffered
// appends, appends with one fsync each, and the control-plane journal's
// buffered append (one ControlPlaneJournal::Append, the durable
// simulator's per-transition cost) and its checkpoint cycle (4096 such
// appends, then the cut to empty that follows a checkpoint).
//
// Unlike the figure harnesses this binary is self-timed (no
// google-benchmark): each workload reports throughput plus exact
// p50/p95/p99 per-op latency, prints a table, and persists
// BENCH_micro_storage.json for the committed perf trajectory.
//
// Usage:
//   bench_micro_storage [--smoke] [--out=PATH]
//
// --smoke shrinks op counts for CI and emits the same JSON.  Exits 1
// unless every B+tree arm's tree passes CheckInvariants and holds the
// entries the arm inserted.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/random.h"
#include "common/stats.h"
#include "controlplane/journal.h"
#include "history/sql_history_store.h"
#include "storage/bplus_tree.h"
#include "storage/buffer_pool.h"
#include "storage/crc32.h"
#include "storage/disk_manager.h"
#include "storage/wal.h"

namespace prorp::bench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Scratch directory for WAL files.  /tmp may be tmpfs on some hosts,
/// which would make fsync free and the per-append-sync row meaningless;
/// prefer the current directory (a real filesystem in CI and
/// dev checkouts) and fall back to /tmp.
std::string WalPath(const std::string& name) {
  std::FILE* probe = std::fopen(("./" + name + ".probe").c_str(), "w");
  if (probe != nullptr) {
    std::fclose(probe);
    std::remove(("./" + name + ".probe").c_str());
    return "./" + name;
  }
  return "/tmp/" + name;
}

/// Times `total_ops` executions of `op` in batches of `batch` (per-op
/// clock reads would distort nanosecond-scale work), recording the mean
/// per-op latency of each batch as one Summary sample.
template <typename Fn>
MicroResult MeasureBatched(std::string name, uint64_t total_ops,
                           uint64_t batch, Fn&& op) {
  MicroResult r;
  r.name = std::move(name);
  Summary lat_us;
  Clock::time_point start = Clock::now();
  for (uint64_t done = 0; done < total_ops;) {
    uint64_t n = std::min(batch, total_ops - done);
    Clock::time_point t0 = Clock::now();
    for (uint64_t i = 0; i < n; ++i) op();
    lat_us.Add(SecondsSince(t0) * 1e6 / static_cast<double>(n));
    done += n;
  }
  r.ops = static_cast<double>(total_ops);
  r.seconds = SecondsSince(start);
  r.p50_us = lat_us.Percentile(0.50);
  r.p95_us = lat_us.Percentile(0.95);
  r.p99_us = lat_us.Percentile(0.99);
  return r;
}

MicroResult BenchCrc32(const std::string& name, uint64_t total_ops,
                       bool slice) {
  Rng rng(11);
  std::vector<uint8_t> buf(4096);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.NextBelow(256));
  volatile uint32_t sink = 0;
  return MeasureBatched(name, total_ops, 64, [&] {
    sink = slice ? storage::internal::Crc32SliceBy8(buf.data(), buf.size())
                 : storage::internal::Crc32ByteAtATime(buf.data(), buf.size());
  });
}

/// Clears `*ok` (after printing why) unless the tree of arm `name` passes
/// CheckInvariants and holds `entries` entries.
void CheckTree(const std::string& name, const storage::BPlusTree& tree,
               uint64_t entries, bool* ok) {
  Status s = tree.CheckInvariants();
  if (s.ok() && tree.size() == entries) return;
  std::fprintf(stderr, "FAIL: %s: %s, %llu entries (expected %llu)\n",
               name.c_str(), s.ToString().c_str(),
               static_cast<unsigned long long>(tree.size()),
               static_cast<unsigned long long>(entries));
  *ok = false;
}

MicroResult BenchBtreeInsert(uint64_t total_ops, bool* ok) {
  storage::InMemoryDiskManager disk;
  storage::BufferPool pool(&disk, 1024);
  auto tree = storage::BPlusTree::Create(&pool, 8).value();
  int64_t v = 0;
  int64_t key = 0;
  MicroResult r =
      MeasureBatched("btree_insert_sequential", total_ops, 256, [&] {
        (void)tree->Insert(key++, reinterpret_cast<const uint8_t*>(&v));
      });
  CheckTree(r.name, *tree, total_ops, ok);
  return r;
}

MicroResult BenchBtreeLookup(uint64_t total_ops, int64_t n, bool* ok) {
  storage::InMemoryDiskManager disk;
  storage::BufferPool pool(&disk, 1024);
  auto tree = storage::BPlusTree::Create(&pool, 8).value();
  int64_t v = 0;
  for (int64_t i = 0; i < n; ++i) {
    (void)tree->Insert(i * 16, reinterpret_cast<const uint8_t*>(&v));
  }
  Rng rng(7);
  MicroResult r = MeasureBatched("btree_point_lookup", total_ops, 256, [&] {
    (void)tree->Find(rng.NextInt(0, n * 16));
  });
  CheckTree(r.name, *tree, static_cast<uint64_t>(n), ok);
  return r;
}

MicroResult BenchBtreeScan(uint64_t total_ops, int64_t n, bool* ok) {
  storage::InMemoryDiskManager disk;
  storage::BufferPool pool(&disk, 1024);
  auto tree = storage::BPlusTree::Create(&pool, 8).value();
  int64_t v = 0;
  for (int64_t i = 0; i < n; ++i) {
    (void)tree->Insert(i * 16, reinterpret_cast<const uint8_t*>(&v));
  }
  Rng rng(7);
  MicroResult r = MeasureBatched("btree_range_scan_100", total_ops, 64, [&] {
    int64_t lo = rng.NextInt(0, n * 16);
    uint64_t count = 0;
    (void)tree->ScanRange(lo, lo + 1600, [&](int64_t, const uint8_t*) {
      ++count;
      return count < 100;
    });
  });
  CheckTree(r.name, *tree, static_cast<uint64_t>(n), ok);
  return r;
}

MicroResult BenchSqlHistoryInsert(uint64_t total_ops) {
  // Algorithm 2 end to end: the IF NOT EXISTS probe plus the insert, both
  // through the SQL executor.
  auto store = history::SqlHistoryStore::Open().value();
  EpochSeconds t = 1'600'000'000;
  return MeasureBatched("sql_history_insert", total_ops, 64, [&] {
    (void)store->InsertHistory(t++, history::kEventLogin);
  });
}

storage::WalRecord MakeRecord(int64_t key) {
  storage::WalRecord rec;
  rec.type = storage::WalRecord::Type::kInsert;
  rec.key = key;
  rec.value.assign(64, static_cast<uint8_t>(key));
  return rec;
}

MicroResult BenchWalAppendNoSync(uint64_t total_ops) {
  std::string path = WalPath("prorp_bench_wal_nosync.log");
  std::remove(path.c_str());
  auto wal = storage::WriteAheadLog::Open(path).value();
  int64_t key = 0;
  MicroResult r = MeasureBatched("wal_append_nosync", total_ops, 64, [&] {
    (void)wal->Append(MakeRecord(key++));
  });
  wal.reset();
  std::remove(path.c_str());
  return r;
}

MicroResult BenchWalSerialSync(uint64_t total_ops) {
  // A durable append (DurableTree's fsync_each_append): one fsync per
  // record.
  std::string path = WalPath("prorp_bench_wal_serial.log");
  std::remove(path.c_str());
  auto wal = storage::WriteAheadLog::Open(path).value();
  int64_t key = 0;
  MicroResult r = MeasureBatched("wal_append_serial_sync", total_ops, 1, [&] {
    (void)wal->Append(MakeRecord(key++));
    (void)wal->Sync();
  });
  wal.reset();
  std::remove(path.c_str());
  return r;
}

MicroResult BenchJournalAppendBuffered(uint64_t total_ops) {
  // The fleet simulator's journal mode: each append reaches the page
  // cache through the WAL's mapped tail, with no fsync.
  std::string path = WalPath("prorp_bench_journal.wal");
  std::remove(path.c_str());
  using controlplane::ControlPlaneJournal;
  auto journal =
      ControlPlaneJournal::Open(path, ControlPlaneJournal::SyncMode::kBuffered)
          .value();
  controlplane::JournalRecord rec;
  rec.event = controlplane::JournalEvent::kMetaUpsert;
  rec.epoch = 1;
  MicroResult r =
      MeasureBatched("journal_append_buffered", total_ops, 64, [&] {
        rec.db = static_cast<uint32_t>(journal->next_seq() % 250);
        rec.time += 60;
        (void)journal->Append(rec);
      });
  journal.reset();
  std::remove(path.c_str());
  return r;
}

MicroResult BenchJournalCheckpointCycle(uint64_t cycles) {
  // The journal's side of one durable-simulator checkpoint interval: the
  // fleet simulator checkpoints every 4096 journal records, then cuts the
  // journal to empty.  The cut zeros the log in place, so the next
  // interval refills windows that are already reserved and cached.
  constexpr uint64_t kAppendsPerCycle = 4096;
  std::string path = WalPath("prorp_bench_journal_cycle.wal");
  std::remove(path.c_str());
  using controlplane::ControlPlaneJournal;
  auto journal =
      ControlPlaneJournal::Open(path, ControlPlaneJournal::SyncMode::kBuffered)
          .value();
  controlplane::JournalRecord rec;
  rec.event = controlplane::JournalEvent::kMetaUpsert;
  rec.epoch = 1;
  MicroResult r =
      MeasureBatched("journal_checkpoint_cycle", cycles, 1, [&] {
        for (uint64_t i = 0; i < kAppendsPerCycle; ++i) {
          rec.db = static_cast<uint32_t>(journal->next_seq() % 250);
          rec.time += 60;
          (void)journal->Append(rec);
        }
        (void)journal->TruncateAfterCheckpoint();
      });
  journal.reset();
  std::remove(path.c_str());
  return r;
}

int Run(bool smoke, const std::string& out_path) {
  PrintHeader("micro_storage: history-store hot path",
              "O(log n) tree ops; a buffered WAL append makes no system "
              "call; slice-by-8 CRC32 is bit-identical but >=4x faster");

  // Smoke keeps CI fast but still exercises every workload; full mode
  // sizes runs so the WAL arms take O(seconds) each.
  const uint64_t kCrcOps = smoke ? 4'000 : 40'000;
  const uint64_t kTreeOps = smoke ? 20'000 : 200'000;
  const uint64_t kSqlOps = smoke ? 2'000 : 20'000;
  const uint64_t kWalNoSync = smoke ? 10'000 : 100'000;
  const uint64_t kWalSerial = smoke ? 400 : 4'000;
  const uint64_t kJournalAppends = smoke ? 20'000 : 200'000;
  const uint64_t kJournalCycles = smoke ? 20 : 200;

  std::vector<MicroResult> results;
  results.push_back(BenchCrc32("crc32_bytewise_4k", kCrcOps, false));
  results.push_back(BenchCrc32("crc32_slice8_4k", kCrcOps, true));
  bool trees_ok = true;
  results.push_back(BenchBtreeInsert(kTreeOps, &trees_ok));
  results.push_back(BenchBtreeLookup(kTreeOps, 100'000, &trees_ok));
  results.push_back(BenchBtreeScan(kTreeOps / 4, 100'000, &trees_ok));
  results.push_back(BenchSqlHistoryInsert(kSqlOps));
  results.push_back(BenchWalAppendNoSync(kWalNoSync));
  results.push_back(BenchWalSerialSync(kWalSerial));
  results.push_back(BenchJournalAppendBuffered(kJournalAppends));
  results.push_back(BenchJournalCheckpointCycle(kJournalCycles));

  for (const MicroResult& r : results) PrintMicroRow(r);

  auto find = [&](const std::string& name) -> const MicroResult* {
    for (const MicroResult& r : results) {
      if (r.name == name) return &r;
    }
    return nullptr;
  };
  const MicroResult* bytewise = find("crc32_bytewise_4k");
  const MicroResult* slice = find("crc32_slice8_4k");
  const MicroResult* journal = find("journal_append_buffered");
  double crc_speedup = slice->ops_per_sec() / bytewise->ops_per_sec();
  double journal_ns = 1e9 / journal->ops_per_sec();

  std::vector<std::pair<std::string, double>> derived = {
      {"crc32_slice8_vs_bytewise_speedup", crc_speedup},
      {"journal_append_buffered_ns", journal_ns},
  };
  std::printf("\nderived: crc32 slice-by-8 %.2fx bytewise; "
              "buffered journal append %.0f ns\n",
              crc_speedup, journal_ns);

  if (!out_path.empty() &&
      !WriteMicroJson(out_path, "micro_storage", smoke ? "smoke" : "full",
                      results, derived)) {
    return 2;
  }
  if (!out_path.empty()) {
    std::printf("wrote %s\n", out_path.c_str());
  }
  return trees_ok ? 0 : 1;
}

}  // namespace
}  // namespace prorp::bench

int main(int argc, char** argv) {
  auto args =
      prorp::bench::ParseBenchArgs(argc, argv, "BENCH_micro_storage.json");
  if (!args) return 2;
  return prorp::bench::Run(args->smoke, args->out_path);
}
