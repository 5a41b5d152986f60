#include "storage/crc32.h"

#include <array>

#if defined(__aarch64__) && defined(__ARM_FEATURE_CRC32)
#include <arm_acle.h>
#define PRORP_CRC32_ARM_HW 1
#endif

namespace prorp::storage {
namespace {

/// kTables[0] is the classic reflected CRC-32 table; kTables[k][b] is the
/// CRC of byte b followed by k zero bytes, which is what lets slice-by-8
/// fold 8 input bytes per round:
///   crc(b0..b7) = T7[b0^c0] ^ T6[b1^c1] ^ ... ^ T0[b7]
struct Tables {
  uint32_t t[8][256];
};

Tables BuildTables() {
  Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    tables.t[0][i] = c;
  }
  for (int k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = tables.t[k - 1][i];
      tables.t[k][i] = (c >> 8) ^ tables.t[0][c & 0xFF];
    }
  }
  return tables;
}

const Tables& GetTables() {
  static const Tables kTables = BuildTables();
  return kTables;
}

/// Byte-order-independent little-endian 32-bit load; compiles to a single
/// mov on little-endian targets.
inline uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

#ifdef PRORP_CRC32_ARM_HW
uint32_t Crc32ArmHw(const uint8_t* data, size_t len, uint32_t seed) {
  uint32_t c = seed ^ 0xFFFFFFFFu;
  while (len >= 8) {
    uint64_t v;
    __builtin_memcpy(&v, data, 8);
    c = __crc32d(c, v);
    data += 8;
    len -= 8;
  }
  while (len > 0) {
    c = __crc32b(c, *data++);
    --len;
  }
  return c ^ 0xFFFFFFFFu;
}
#endif

using Crc32Fn = uint32_t (*)(const uint8_t*, size_t, uint32_t);

/// One-time dispatch.  The ARMv8 CRC32 extension implements the IEEE
/// polynomial, so it is bit-identical; when the extension is not compiled
/// in (or on x86, whose SSE4.2 crc32 is the incompatible Castagnoli
/// polynomial) the slice-by-8 software path is the fast path.
Crc32Fn PickImpl() {
#ifdef PRORP_CRC32_ARM_HW
  return &Crc32ArmHw;
#else
  return &internal::Crc32SliceBy8;
#endif
}

}  // namespace

namespace internal {

uint32_t Crc32ByteAtATime(const uint8_t* data, size_t len, uint32_t seed) {
  const Tables& tables = GetTables();
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    c = tables.t[0][(c ^ data[i]) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

uint32_t Crc32SliceBy8(const uint8_t* data, size_t len, uint32_t seed) {
  const Tables& tables = GetTables();
  const auto& t = tables.t;
  uint32_t c = seed ^ 0xFFFFFFFFu;
  while (len >= 8) {
    uint32_t lo = LoadLe32(data) ^ c;
    uint32_t hi = LoadLe32(data + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
    data += 8;
    len -= 8;
  }
  while (len > 0) {
    c = t[0][(c ^ *data++) & 0xFF] ^ (c >> 8);
    --len;
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace internal

uint32_t Crc32(const uint8_t* data, size_t len, uint32_t seed) {
  static const Crc32Fn kImpl = PickImpl();
  return kImpl(data, len, seed);
}

}  // namespace prorp::storage
