#include "history/history_store.h"

#include <filesystem>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "history/mem_history_store.h"
#include "history/sql_history_store.h"

namespace prorp::history {
namespace {

namespace fs = std::filesystem;

enum class StoreKind { kSql, kMem };

std::unique_ptr<HistoryStore> MakeStore(StoreKind kind) {
  if (kind == StoreKind::kSql) {
    auto s = SqlHistoryStore::Open();
    EXPECT_TRUE(s.ok()) << s.status().ToString();
    return std::move(*s);
  }
  return std::make_unique<MemHistoryStore>();
}

// Every behavioural test runs against BOTH implementations: the faithful
// SQL stored procedures and the in-memory simulation store must be
// indistinguishable through the HistoryStore interface.
class HistoryStoreTest : public ::testing::TestWithParam<StoreKind> {
 protected:
  void SetUp() override { store_ = MakeStore(GetParam()); }
  std::unique_ptr<HistoryStore> store_;
};

TEST_P(HistoryStoreTest, EmptyStore) {
  EXPECT_EQ(store_->NumTuples(), 0u);
  EXPECT_EQ(store_->SizeBytes(), 0u);
  EXPECT_TRUE(store_->MinTimestamp().status().IsNotFound());
  auto old = store_->DeleteOldHistory(Days(28), 1'700'000'000);
  ASSERT_TRUE(old.ok());
  EXPECT_FALSE(*old);  // empty history: not an old database
}

TEST_P(HistoryStoreTest, InsertAndReadBack) {
  ASSERT_TRUE(store_->InsertHistory(1000, kEventLogin).ok());
  ASSERT_TRUE(store_->InsertHistory(2000, kEventLogout).ok());
  ASSERT_TRUE(store_->InsertHistory(1500, kEventLogin).ok());  // out of order
  auto all = store_->ReadAll();
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(all->size(), 3u);
  EXPECT_EQ((*all)[0], (HistoryTuple{1000, 1}));
  EXPECT_EQ((*all)[1], (HistoryTuple{1500, 1}));
  EXPECT_EQ((*all)[2], (HistoryTuple{2000, 0}));
  EXPECT_EQ(*store_->MinTimestamp(), 1000);
  EXPECT_EQ(store_->SizeBytes(), 3 * kTupleBytes);
}

TEST_P(HistoryStoreTest, InsertIsIdempotentOnTimestamp) {
  // Algorithm 2's IF NOT EXISTS: a second tuple with the same timestamp is
  // silently dropped, keeping the first event type.
  ASSERT_TRUE(store_->InsertHistory(1000, kEventLogin).ok());
  ASSERT_TRUE(store_->InsertHistory(1000, kEventLogout).ok());
  auto all = store_->ReadAll();
  ASSERT_EQ(all->size(), 1u);
  EXPECT_EQ((*all)[0].event_type, kEventLogin);
}

TEST_P(HistoryStoreTest, RejectsBadEventType) {
  EXPECT_TRUE(store_->InsertHistory(1, 2).IsInvalidArgument());
  EXPECT_TRUE(store_->InsertHistory(1, -1).IsInvalidArgument());
}

TEST_P(HistoryStoreTest, DeleteOldHistoryKeepsOldestTuple) {
  const EpochSeconds now = Days(100);
  // Lifespan witness at day 1, stale activity at days 10, 40, recent at 90.
  ASSERT_TRUE(store_->InsertHistory(Days(1), kEventLogin).ok());
  ASSERT_TRUE(store_->InsertHistory(Days(10), kEventLogout).ok());
  ASSERT_TRUE(store_->InsertHistory(Days(40), kEventLogin).ok());
  ASSERT_TRUE(store_->InsertHistory(Days(90), kEventLogin).ok());
  auto old = store_->DeleteOldHistory(Days(28), now);  // cut at day 72
  ASSERT_TRUE(old.ok());
  EXPECT_TRUE(*old);
  auto all = store_->ReadAll();
  ASSERT_EQ(all->size(), 2u);
  // The oldest tuple survives as the lifespan witness (Algorithm 3).
  EXPECT_EQ((*all)[0].time_snapshot, Days(1));
  EXPECT_EQ((*all)[1].time_snapshot, Days(90));
}

TEST_P(HistoryStoreTest, YoungDatabaseIsNotOld) {
  const EpochSeconds now = Days(100);
  ASSERT_TRUE(store_->InsertHistory(now - Days(5), kEventLogin).ok());
  auto old = store_->DeleteOldHistory(Days(28), now);
  ASSERT_TRUE(old.ok());
  EXPECT_FALSE(*old);
  EXPECT_EQ(store_->NumTuples(), 1u);  // nothing deleted
}

TEST_P(HistoryStoreTest, BoundaryExactlyAtHistoryStart) {
  const EpochSeconds now = Days(100);
  const EpochSeconds cut = now - Days(28);
  ASSERT_TRUE(store_->InsertHistory(cut, kEventLogin).ok());
  // min == historyStart: strictly-less comparison => not old.
  auto old = store_->DeleteOldHistory(Days(28), now);
  ASSERT_TRUE(old.ok());
  EXPECT_FALSE(*old);

  ASSERT_TRUE(store_->InsertHistory(cut - 1, kEventLogin).ok());
  auto old2 = store_->DeleteOldHistory(Days(28), now);
  ASSERT_TRUE(old2.ok());
  EXPECT_TRUE(*old2);
  // Tuple exactly at the cut is kept (delete range is exclusive).
  auto all = store_->ReadAll();
  ASSERT_EQ(all->size(), 2u);
  EXPECT_EQ((*all)[0].time_snapshot, cut - 1);
  EXPECT_EQ((*all)[1].time_snapshot, cut);
}

TEST_P(HistoryStoreTest, LoginMinMaxFiltersEventType) {
  ASSERT_TRUE(store_->InsertHistory(100, kEventLogin).ok());
  ASSERT_TRUE(store_->InsertHistory(200, kEventLogout).ok());
  ASSERT_TRUE(store_->InsertHistory(300, kEventLogin).ok());
  ASSERT_TRUE(store_->InsertHistory(400, kEventLogout).ok());
  auto agg = store_->LoginMinMax(0, 1000);
  ASSERT_TRUE(agg.ok());
  EXPECT_TRUE(agg->any);
  EXPECT_EQ(agg->first_login, 100);
  EXPECT_EQ(agg->last_login, 300);
  // Range with only logouts -> no logins.
  auto none = store_->LoginMinMax(150, 250);
  ASSERT_TRUE(none.ok());
  EXPECT_FALSE(none->any);
}

TEST_P(HistoryStoreTest, LoginMinMaxHalfOpenBounds) {
  ASSERT_TRUE(store_->InsertHistory(100, kEventLogin).ok());
  ASSERT_TRUE(store_->InsertHistory(200, kEventLogin).ok());
  // Lower bound inclusive, upper bound exclusive: [100, 200) sees only
  // the login at 100.
  auto agg = store_->LoginMinMax(100, 200);
  ASSERT_TRUE(agg.ok());
  EXPECT_TRUE(agg->any);
  EXPECT_EQ(agg->first_login, 100);
  EXPECT_EQ(agg->last_login, 100);
  auto next = store_->LoginMinMax(200, 300);
  ASSERT_TRUE(next.ok());
  EXPECT_TRUE(next->any);
  EXPECT_EQ(next->first_login, 200);
  auto excl = store_->LoginMinMax(101, 200);
  ASSERT_TRUE(excl.ok());
  EXPECT_FALSE(excl->any);
}

TEST_P(HistoryStoreTest, BoundaryLoginCountedInExactlyOneWindow) {
  // Regression: a login exactly at prev_start + window_size belongs to
  // the next window only.  The old inclusive upper bound counted it in
  // both adjacent sliding windows, inflating seasons_with_activity.
  const DurationSeconds window = Hours(7);
  ASSERT_TRUE(store_->InsertHistory(Days(10) + window, kEventLogin).ok());
  auto first = store_->LoginMinMax(Days(10), Days(10) + window);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->any);
  auto second =
      store_->LoginMinMax(Days(10) + window, Days(10) + 2 * window);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->any);
  EXPECT_EQ(second->first_login, Days(10) + window);
}

TEST_P(HistoryStoreTest, CollectLoginsSortedAndFiltered) {
  ASSERT_TRUE(store_->InsertHistory(300, kEventLogin).ok());
  ASSERT_TRUE(store_->InsertHistory(100, kEventLogin).ok());
  ASSERT_TRUE(store_->InsertHistory(150, kEventLogout).ok());
  ASSERT_TRUE(store_->InsertHistory(200, kEventLogin).ok());
  auto logins = store_->CollectLogins(100, 250);
  ASSERT_TRUE(logins.ok());
  EXPECT_EQ(*logins, (std::vector<EpochSeconds>{100, 200}));
  // Upper bound is exclusive, matching LoginMinMax.
  auto half_open = store_->CollectLogins(100, 200);
  ASSERT_TRUE(half_open.ok());
  EXPECT_EQ(*half_open, (std::vector<EpochSeconds>{100}));
}

TEST_P(HistoryStoreTest, DeleteOldRejectsNonPositiveH) {
  EXPECT_TRUE(store_->DeleteOldHistory(0, 100).status().IsInvalidArgument());
}

INSTANTIATE_TEST_SUITE_P(Impl, HistoryStoreTest,
                         ::testing::Values(StoreKind::kSql, StoreKind::kMem),
                         [](const auto& info) {
                           return info.param == StoreKind::kSql ? "Sql"
                                                                : "Mem";
                         });

// Differential test: both stores driven by the same random operation
// sequence must stay observationally identical.
TEST(HistoryStoreEquivalenceTest, RandomOperationsMatch) {
  Rng rng(20240615);
  auto sql_store = SqlHistoryStore::Open();
  ASSERT_TRUE(sql_store.ok());
  MemHistoryStore mem_store;
  EpochSeconds now = 1'600'000'000;
  for (int op = 0; op < 2000; ++op) {
    now += rng.NextInt(0, Hours(2));
    double dice = rng.NextDouble();
    if (dice < 0.8) {
      int type = rng.NextBool(0.5) ? kEventLogin : kEventLogout;
      // Occasionally duplicate an old timestamp to exercise IF NOT EXISTS.
      EpochSeconds t = rng.NextBool(0.05) ? now - rng.NextInt(0, Days(2))
                                          : now;
      ASSERT_TRUE((*sql_store)->InsertHistory(t, type).ok());
      ASSERT_TRUE(mem_store.InsertHistory(t, type).ok());
    } else if (dice < 0.9) {
      auto a = (*sql_store)->DeleteOldHistory(Days(28), now);
      auto b = mem_store.DeleteOldHistory(Days(28), now);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      EXPECT_EQ(*a, *b);
    } else {
      EpochSeconds lo = now - rng.NextInt(0, Days(30));
      EpochSeconds hi = lo + rng.NextInt(0, Days(2));
      auto a = (*sql_store)->LoginMinMax(lo, hi);
      auto b = mem_store.LoginMinMax(lo, hi);
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      EXPECT_EQ(a->any, b->any);
      if (a->any) {
        EXPECT_EQ(a->first_login, b->first_login);
        EXPECT_EQ(a->last_login, b->last_login);
      }
    }
  }
  auto all_sql = (*sql_store)->ReadAll();
  auto all_mem = mem_store.ReadAll();
  ASSERT_TRUE(all_sql.ok());
  ASSERT_TRUE(all_mem.ok());
  EXPECT_EQ(*all_sql, *all_mem);
}

// Retention moves the in-memory store's heads and witness slot rather
// than erasing; after each of many cuts, and after re-inserting deleted
// timestamps, both stores must still read the same.
TEST(HistoryStoreEquivalenceTest, RepeatedRetentionCutsAndReinsertion) {
  Rng rng(20261019);
  auto sql_store = SqlHistoryStore::Open();
  ASSERT_TRUE(sql_store.ok());
  MemHistoryStore mem_store;
  std::vector<HistoryStore*> stores = {sql_store->get(), &mem_store};
  auto expect_same = [&] {
    EXPECT_EQ((*sql_store)->NumTuples(), mem_store.NumTuples());
    auto all_sql = (*sql_store)->ReadAll();
    auto all_mem = mem_store.ReadAll();
    ASSERT_TRUE(all_sql.ok());
    ASSERT_TRUE(all_mem.ok());
    EXPECT_EQ(*all_sql, *all_mem);
    auto min_sql = (*sql_store)->MinTimestamp();
    auto min_mem = mem_store.MinTimestamp();
    ASSERT_EQ(min_sql.ok(), min_mem.ok());
    if (min_sql.ok()) {
      EXPECT_EQ(*min_sql, *min_mem);
    }
    // The in-place read sees exactly what CollectLogins copies.
    std::vector<EpochSeconds> unused;
    auto view = mem_store.ReadLogins(0, 1'700'000'000, &unused);
    auto copy = (*sql_store)->CollectLogins(0, 1'700'000'000);
    ASSERT_TRUE(view.ok());
    ASSERT_TRUE(copy.ok());
    EXPECT_EQ(std::vector<EpochSeconds>(view->begin(), view->end()), *copy);
    EXPECT_TRUE(unused.empty());
  };
  EpochSeconds now = 1'600'000'000;
  std::vector<std::pair<EpochSeconds, int>> inserted;
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 20; ++i) {
      now += rng.NextInt(1, Hours(6));
      const int type = rng.NextBool(0.5) ? kEventLogin : kEventLogout;
      inserted.emplace_back(now, type);
      for (HistoryStore* s : stores) {
        ASSERT_TRUE(s->InsertHistory(now, type).ok());
      }
    }
    const DurationSeconds h = Days(rng.NextInt(1, 6));
    for (int cut = 0; cut < 3; ++cut) {
      auto a = (*sql_store)->DeleteOldHistory(h, now - cut * Hours(5));
      auto b = mem_store.DeleteOldHistory(h, now - cut * Hours(5));
      ASSERT_TRUE(a.ok());
      ASSERT_TRUE(b.ok());
      EXPECT_EQ(*a, *b);
      expect_same();
    }
    // Re-insert a few timestamps, most of them deleted by now, with
    // either event type: IF NOT EXISTS must answer alike.
    for (int i = 0; i < 3; ++i) {
      const auto& [t, type] =
          inserted[static_cast<size_t>(rng.NextInt(0, inserted.size() - 1))];
      const int again = rng.NextBool(0.5) ? type : 1 - type;
      for (HistoryStore* s : stores) {
        ASSERT_TRUE(s->InsertHistory(t, again).ok());
      }
      expect_same();
    }
  }
  // A timestamp older than the witness becomes the new oldest tuple.
  for (HistoryStore* s : stores) {
    ASSERT_TRUE(s->InsertHistory(1'500'000'000, kEventLogout).ok());
  }
  expect_same();
  EXPECT_EQ(*mem_store.MinTimestamp(), 1'500'000'000);
}

TEST(SqlHistoryStoreTest, DurableAcrossReopen) {
  std::string dir = testing::TempDir() + "/history_durable";
  fs::remove_all(dir);
  fs::create_directories(dir);
  {
    auto store = SqlHistoryStore::Open(dir);
    ASSERT_TRUE(store.ok());
    ASSERT_TRUE((*store)->InsertHistory(1000, kEventLogin).ok());
    ASSERT_TRUE((*store)->InsertHistory(2000, kEventLogout).ok());
  }
  {
    auto store = SqlHistoryStore::Open(dir);
    ASSERT_TRUE(store.ok()) << store.status().ToString();
    EXPECT_EQ((*store)->NumTuples(), 2u);
    EXPECT_EQ(*(*store)->MinTimestamp(), 1000);
  }
  fs::remove_all(dir);
}

TEST(HistoryViewTest, HumanReadableMaterializedView) {
  std::vector<HistoryTuple> tuples = {{1693551600, kEventLogin},
                                      {1693580400, kEventLogout}};
  std::string view = FormatHistoryView(tuples);
  EXPECT_NE(view.find("2023-09-01 07:00:00    activity_start"),
            std::string::npos)
      << view;
  EXPECT_NE(view.find("2023-09-01 15:00:00    activity_end"),
            std::string::npos);
}

}  // namespace
}  // namespace prorp::history
