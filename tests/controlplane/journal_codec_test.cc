// Property and fuzz tests of the control-plane journal's record encoding:
// every field round-trips at its extremes, and a value that passes the
// WAL frame's CRC but is not a record this build writes (an old
// fixed-layout value, a truncated or extended one, random bytes) replays
// as Corruption, never as a wrong record.

#include <cstdint>
#include <filesystem>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "controlplane/journal.h"
#include "storage/wal.h"

namespace prorp::controlplane {
namespace {

namespace fs = std::filesystem;
using Bytes = std::vector<uint8_t>;

constexpr int64_t kI64Min = std::numeric_limits<int64_t>::min();
constexpr int64_t kI64Max = std::numeric_limits<int64_t>::max();
constexpr uint64_t kU64Max = std::numeric_limits<uint64_t>::max();

std::string FreshDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

void ExpectSameRecord(const JournalRecord& got, const JournalRecord& want,
                      const std::string& label) {
  EXPECT_EQ(got.event, want.event) << label;
  EXPECT_EQ(got.epoch, want.epoch) << label;
  EXPECT_EQ(got.db, want.db) << label;
  EXPECT_EQ(got.cls, want.cls) << label;
  EXPECT_EQ(got.flags, want.flags) << label;
  EXPECT_EQ(got.attempt, want.attempt) << label;
  EXPECT_EQ(got.time, want.time) << label;
  EXPECT_EQ(got.enqueued_at, want.enqueued_at) << label;
  EXPECT_EQ(got.not_before, want.not_before) << label;
  EXPECT_EQ(got.deadline, want.deadline) << label;
  EXPECT_EQ(got.predicted_start, want.predicted_start) << label;
  EXPECT_EQ(got.stats, want.stats) << label;
  EXPECT_EQ(got.idle_before, want.idle_before) << label;
}

/// Journals `records` into `path` and returns the WAL values they became.
std::vector<Bytes> EncodedValues(const std::string& path,
                                 const std::vector<JournalRecord>& records) {
  fs::remove(path);
  {
    auto journal = ControlPlaneJournal::Open(
        path, ControlPlaneJournal::SyncMode::kBuffered);
    EXPECT_TRUE(journal.ok());
    for (const JournalRecord& rec : records) {
      EXPECT_TRUE((*journal)->Append(rec).ok());
    }
  }
  std::vector<Bytes> values;
  auto n = storage::WriteAheadLog::Replay(
      path, [&](const storage::WalRecord& wr) {
        values.push_back(wr.value);
        return Status::OK();
      });
  EXPECT_TRUE(n.ok());
  return values;
}

/// Writes `value` as the one kInsert frame of a fresh log at `path` (so
/// its CRC is valid) and replays it through the journal.
Status ReplayValue(const std::string& path, const Bytes& value,
                   JournalRecord* out) {
  fs::remove(path);
  {
    auto wal = storage::WriteAheadLog::Open(path);
    if (!wal.ok()) return wal.status();
    storage::WalRecord wr;
    wr.key = 1;
    wr.value = value;
    PRORP_RETURN_IF_ERROR((*wal)->Append(wr));
  }
  uint64_t seen = 0;
  auto n = ControlPlaneJournal::Replay(
      path, [&](uint64_t, const JournalRecord& rec) {
        ++seen;
        if (out != nullptr) *out = rec;
        return Status::OK();
      });
  if (!n.ok()) return n.status();
  EXPECT_EQ(seen, 1u);
  return Status::OK();
}

/// Records that put every field at zero, at negative values and at the
/// extremes of its type, over every event.
std::vector<JournalRecord> ExtremeRecords() {
  std::vector<JournalRecord> records;
  const int64_t times[] = {0, 1, -1, 1'000'000, kI64Min, kI64Max};
  const int64_t others[] = {0, -7, 42, kI64Min, kI64Max};
  for (uint8_t e = 1; e <= static_cast<uint8_t>(JournalEvent::kNodeDead);
       ++e) {
    JournalRecord zero;
    zero.event = static_cast<JournalEvent>(e);
    records.push_back(zero);
  }
  for (int64_t time : times) {
    for (int64_t other : others) {
      JournalRecord r;
      r.event = JournalEvent::kOutcomeFailed;
      r.time = time;
      r.enqueued_at = other;
      r.not_before = time;  // a zero delta from a non-zero time
      r.deadline = ~other;  // INT64_MIN <-> INT64_MAX, 0 -> -1
      r.predicted_start = other;
      records.push_back(r);
    }
  }
  JournalRecord max;
  max.event = JournalEvent::kIteration;
  max.epoch = kU64Max;
  max.db = std::numeric_limits<DbId>::max();
  max.cls = std::numeric_limits<uint8_t>::max();
  max.flags = std::numeric_limits<uint32_t>::max();
  max.attempt = std::numeric_limits<int32_t>::max();
  max.time = kI64Max;
  max.enqueued_at = kI64Min;
  max.not_before = kI64Max;
  max.deadline = kI64Min;
  max.predicted_start = kI64Min;
  max.stats = {kU64Max, 1, kU64Max, 0};
  records.push_back(max);
  JournalRecord min = max;
  min.attempt = std::numeric_limits<int32_t>::min();
  min.time = kI64Min;
  min.predicted_start = kI64Max;
  records.push_back(min);
  for (int32_t attempt = -3; attempt <= 3; ++attempt) {
    JournalRecord r;
    r.event = JournalEvent::kAccepted;
    r.attempt = attempt;  // an admission shed journals attempt -1
    records.push_back(r);
  }
  for (uint64_t idle : {uint64_t{1}, uint64_t{1} << 40, kU64Max}) {
    JournalRecord r;
    r.event = JournalEvent::kIteration;
    r.time = 1'000'000;
    r.stats = {3, 0, 0, idle};
    r.idle_before = idle;
    records.push_back(r);
  }
  return records;
}

TEST(JournalCodecTest, ExtremeFieldValuesRoundTrip) {
  const std::string path = FreshDir("journal_codec_extremes") + "/j.wal";
  const std::vector<JournalRecord> want = ExtremeRecords();
  const std::vector<Bytes> values = EncodedValues(path, want);
  ASSERT_EQ(values.size(), want.size());
  std::vector<JournalRecord> got;
  auto n = ControlPlaneJournal::Replay(
      path, [&](uint64_t, const JournalRecord& rec) {
        got.push_back(rec);
        return Status::OK();
      });
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ExpectSameRecord(got[i], want[i], "record " + std::to_string(i));
  }
  // A record of zeros is the event byte and an empty mask; no record
  // needs more than the event byte, a 3-byte mask and 15 varints.
  EXPECT_EQ(values[0].size(), 2u);
  for (const Bytes& v : values) EXPECT_LE(v.size(), 4u + 15 * 10);
}

TEST(JournalCodecTest, IdleCountIsOnlyOnTheWireWhenNonZero) {
  // kIteration at time 60 that resumed 2: the event byte, the mask of
  // `time` and stats[0] (bits 5 and 10, two varint bytes) and the two
  // fields.  A zero idle count leaves these bytes as they always were; a
  // non-zero one sets mask bit 14, which takes a third mask byte, and
  // appends its varint.
  JournalRecord rec;
  rec.event = JournalEvent::kIteration;
  rec.time = 60;
  rec.stats[0] = 2;
  JournalRecord idle = rec;
  idle.idle_before = 300;
  const std::string path = FreshDir("journal_codec_idle") + "/j.wal";
  const std::vector<Bytes> values = EncodedValues(path, {rec, idle});
  ASSERT_EQ(values.size(), 2u);
  EXPECT_EQ(values[0], (Bytes{0x80 | 16, 0xa0, 0x08, 60, 2}));
  EXPECT_EQ(values[1], (Bytes{0x80 | 16, 0xa0, 0x88, 0x01, 60, 2, 0xac, 0x02}));
  JournalRecord got;
  ASSERT_TRUE(ReplayValue(path, values[1], &got).ok());
  ExpectSameRecord(got, idle, "idle record");
  // A present idle field of zero is not this encoding's.
  EXPECT_TRUE(ReplayValue(path, {0x80 | 16, 0x80, 0x80, 0x01, 0x00}, nullptr)
                  .IsCorruption());
}

TEST(JournalCodecTest, FixedLayoutValueIsCorruption) {
  // A value in the fixed 94-byte layout journals used to carry:
  //   [u8 event][u64 epoch][u32 db][u8 cls][u32 flags][i32 attempt]
  //   [i64 time][i64 enqueued_at][i64 not_before][i64 deadline]
  //   [i64 predicted_start][u64 stats[4]]
  // It must not decode as a record of the current format.
  Bytes v1;
  auto put = [&v1](uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      v1.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }
  };
  put(static_cast<uint8_t>(JournalEvent::kAccepted), 1);
  put(3, 8);          // epoch
  put(100, 4);        // db
  put(1, 1);          // cls
  put(kJfReactive, 4);
  put(0, 4);          // attempt
  for (int i = 0; i < 5; ++i) put(1'000'000 + 60 * i, 8);
  for (int i = 0; i < 4; ++i) put(i, 8);
  ASSERT_EQ(v1.size(), 94u);
  const std::string path = FreshDir("journal_codec_v1") + "/j.wal";
  Status s = ReplayValue(path, v1, nullptr);
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  // Every old event code, whatever follows it.
  for (uint8_t e = 0; e < 0x80; ++e) {
    v1[0] = e;
    s = ReplayValue(path, v1, nullptr);
    EXPECT_TRUE(s.IsCorruption()) << "event byte " << int{e} << ": "
                                  << s.ToString();
  }
}

TEST(JournalCodecTest, ImpossibleValuesAreCorruption) {
  const std::string path = FreshDir("journal_codec_impossible") + "/j.wal";
  // kAccepted = 4, tagged with the format bit.
  constexpr uint8_t kTagged = 0x80 | 4;
  const struct {
    const char* what;
    Bytes value;
  } cases[] = {
      {"empty value", {}},
      {"no mask", {kTagged}},
      {"event without the format tag", {4, 0x00}},
      {"event 0", {0x80, 0x00}},
      {"event past the last", {0x80 | 20, 0x00}},
      {"event 127", {0xff, 0x00}},
      {"mask varint past the value", {kTagged, 0x81}},
      {"field varint past the value", {kTagged, 0x01, 0x80}},
      {"field missing", {kTagged, 0x03, 0x05}},
      {"over-long varint (11 bytes)",
       {kTagged, 0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
        0xff, 0x01}},
      {"10th varint byte past 64 bits",
       {kTagged, 0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
        0x02}},
      {"non-minimal varint", {kTagged, 0x01, 0x81, 0x00}},
      {"non-minimal mask", {kTagged, 0x80, 0x00}},
      {"mask bit 14 (idle_before) without its field",
       {kTagged, 0x80, 0x80, 0x01}},
      {"unknown mask bit 15", {kTagged, 0x80, 0x80, 0x02}},
      {"unknown mask bit 20", {kTagged, 0x80, 0x80, 0x40}},
      {"trailing byte", {kTagged, 0x00, 0x00}},
      {"trailing byte after a field", {kTagged, 0x01, 0x05, 0x07}},
      {"present field of zero", {kTagged, 0x01, 0x00}},
      {"delta field back to zero", {kTagged, 0xa0, 0x01, 0x0a, 0x13}},
      {"db past 32 bits", {kTagged, 0x02, 0x80, 0x80, 0x80, 0x80, 0x10}},
      {"cls past 8 bits", {kTagged, 0x04, 0x80, 0x02}},
      {"attempt past 32 bits", {kTagged, 0x10, 0x80, 0x80, 0x80, 0x80, 0x10}},
  };
  for (const auto& c : cases) {
    Status s = ReplayValue(path, c.value, nullptr);
    EXPECT_TRUE(s.IsCorruption()) << c.what << ": " << s.ToString();
  }
  // The smallest record and the largest in-range narrow fields decode.
  JournalRecord rec;
  ASSERT_TRUE(ReplayValue(path, {kTagged, 0x00}, &rec).ok());
  EXPECT_EQ(rec.event, JournalEvent::kAccepted);
  ASSERT_TRUE(
      ReplayValue(path, {kTagged, 0x06, 0xff, 0xff, 0xff, 0xff, 0x0f, 0xff,
                         0x01},
                  &rec)
          .ok());
  EXPECT_EQ(rec.db, std::numeric_limits<DbId>::max());
  EXPECT_EQ(rec.cls, 0xff);
}

TEST(JournalCodecTest, TruncatedAndExtendedValuesAreCorruption) {
  const std::string dir = FreshDir("journal_codec_truncated");
  const std::vector<Bytes> values =
      EncodedValues(dir + "/source.wal", ExtremeRecords());
  const std::string path = dir + "/j.wal";
  for (size_t i = 0; i < values.size(); ++i) {
    const Bytes& value = values[i];
    for (size_t len = 0; len < value.size(); ++len) {
      Status s = ReplayValue(
          path, Bytes(value.begin(), value.begin() + len), nullptr);
      EXPECT_TRUE(s.IsCorruption())
          << "record " << i << " cut to " << len << ": " << s.ToString();
    }
    Bytes extended = value;
    extended.push_back(0x00);
    Status s = ReplayValue(path, extended, nullptr);
    EXPECT_TRUE(s.IsCorruption()) << "record " << i << ": " << s.ToString();
  }
}

TEST(JournalCodecTest, RandomValuesDecodeCanonicallyOrFail) {
  // Random byte strings, and valid values with one byte replaced, either
  // fail as Corruption or decode to a record that encodes back to exactly
  // the same bytes: no value decodes to a record it does not encode.
  const std::string dir = FreshDir("journal_codec_random");
  const std::vector<Bytes> valid =
      EncodedValues(dir + "/source.wal", ExtremeRecords());
  const std::string path = dir + "/j.wal";
  std::mt19937_64 rng(2024);
  uint64_t decoded = 0;
  uint64_t refused = 0;
  for (int iter = 0; iter < 1500; ++iter) {
    Bytes value;
    if (iter % 2 == 0) {
      value.resize(rng() % 24);
      for (uint8_t& b : value) b = static_cast<uint8_t>(rng());
      if (!value.empty() && iter % 4 == 0) value[0] |= 0x80;
    } else {
      value = valid[rng() % valid.size()];
      value[rng() % value.size()] = static_cast<uint8_t>(rng());
    }
    JournalRecord rec;
    Status s = ReplayValue(path, value, &rec);
    if (!s.ok()) {
      EXPECT_TRUE(s.IsCorruption()) << "iteration " << iter << ": "
                                    << s.ToString();
      ++refused;
      continue;
    }
    ++decoded;
    const std::vector<Bytes> again =
        EncodedValues(dir + "/again.wal", {rec});
    ASSERT_EQ(again.size(), 1u);
    EXPECT_EQ(again[0], value) << "iteration " << iter;
  }
  // Both outcomes occur, so the property is not vacuous.
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(refused, 0u);
}

}  // namespace
}  // namespace prorp::controlplane
