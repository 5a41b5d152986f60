#include "storage/crc32.h"

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace prorp::storage {
namespace {

std::vector<uint8_t> RandomBytes(Rng& rng, size_t n) {
  std::vector<uint8_t> out(n);
  for (auto& b : out) b = static_cast<uint8_t>(rng.NextBelow(256));
  return out;
}

TEST(Crc32Test, KnownVectors) {
  // The IEEE CRC-32 check value: CRC("123456789") == 0xCBF43926.
  const uint8_t digits[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(Crc32(digits, 9), 0xCBF43926u);
  EXPECT_EQ(internal::Crc32ByteAtATime(digits, 9), 0xCBF43926u);
  EXPECT_EQ(internal::Crc32SliceBy8(digits, 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(Crc32Test, SliceBy8MatchesReferenceAcrossSmallLengths) {
  // Every length 0..64 covers all alignments of the 8-byte main loop and
  // every possible tail length, on several random buffers.
  Rng rng(2024);
  for (int trial = 0; trial < 8; ++trial) {
    std::vector<uint8_t> buf = RandomBytes(rng, 64);
    for (size_t len = 0; len <= 64; ++len) {
      uint32_t ref = internal::Crc32ByteAtATime(buf.data(), len);
      EXPECT_EQ(internal::Crc32SliceBy8(buf.data(), len), ref)
          << "trial=" << trial << " len=" << len;
      EXPECT_EQ(Crc32(buf.data(), len), ref)
          << "trial=" << trial << " len=" << len;
    }
  }
}

TEST(Crc32Test, SliceBy8MatchesReferenceOnLargeRandomBuffers) {
  Rng rng(7);
  for (int trial = 0; trial < 4; ++trial) {
    size_t n = 1 + rng.NextBelow(1 << 20);
    std::vector<uint8_t> buf = RandomBytes(rng, n);
    uint32_t seed = static_cast<uint32_t>(rng.NextU64());
    EXPECT_EQ(internal::Crc32SliceBy8(buf.data(), n, seed),
              internal::Crc32ByteAtATime(buf.data(), n, seed))
        << "trial=" << trial << " n=" << n;
    // Misaligned start: the slice loop must not assume 8-byte alignment.
    size_t skew = 1 + rng.NextBelow(7);
    if (n > skew) {
      EXPECT_EQ(internal::Crc32SliceBy8(buf.data() + skew, n - skew),
                internal::Crc32ByteAtATime(buf.data() + skew, n - skew));
    }
  }
}

TEST(Crc32Test, ChainedSeedEqualsConcatenation) {
  // Crc32(a+b) == Crc32(b, seed=Crc32(a)): the property the WAL and the
  // page sealer rely on to checksum logically concatenated regions
  // without materializing them.
  Rng rng(99);
  for (int trial = 0; trial < 16; ++trial) {
    size_t na = rng.NextBelow(300);
    size_t nb = rng.NextBelow(300);
    std::vector<uint8_t> a = RandomBytes(rng, na);
    std::vector<uint8_t> b = RandomBytes(rng, nb);
    std::vector<uint8_t> ab = a;
    ab.insert(ab.end(), b.begin(), b.end());
    uint32_t whole = Crc32(ab.data(), ab.size());
    uint32_t chained = Crc32(b.data(), b.size(), Crc32(a.data(), a.size()));
    EXPECT_EQ(chained, whole) << "na=" << na << " nb=" << nb;
    // And the same property holds for each implementation on its own.
    EXPECT_EQ(internal::Crc32SliceBy8(
                  b.data(), b.size(),
                  internal::Crc32SliceBy8(a.data(), a.size())),
              whole);
    EXPECT_EQ(internal::Crc32ByteAtATime(
                  b.data(), b.size(),
                  internal::Crc32ByteAtATime(a.data(), a.size())),
              whole);
  }
}

TEST(Crc32Test, DispatchedImplementationIsBitIdentical) {
  // Whatever the runtime dispatch picked (slice-by-8 or ARM hardware), it
  // must agree with the byte-at-a-time reference — checksums already on
  // disk have to keep verifying.
  Rng rng(5);
  std::vector<uint8_t> buf = RandomBytes(rng, 65536);
  for (size_t len : {size_t{0}, size_t{1}, size_t{7}, size_t{8}, size_t{9},
                     size_t{4096}, size_t{65536}}) {
    EXPECT_EQ(Crc32(buf.data(), len),
              internal::Crc32ByteAtATime(buf.data(), len))
        << "len=" << len;
  }
}

}  // namespace
}  // namespace prorp::storage
