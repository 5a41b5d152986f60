#ifndef PRORP_STORAGE_CRC32_H_
#define PRORP_STORAGE_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace prorp::storage {

/// CRC-32 (IEEE 802.3 polynomial 0xEDB88320, reflected).  Used to checksum
/// WAL frames, snapshot files, and v2 page headers so torn writes and
/// silent medium corruption are detected.
///
/// Computed slice-by-8 (8 input bytes per table round) with an optional
/// hardware path behind a one-time runtime dispatch; every path is
/// bit-identical to the original byte-at-a-time table implementation, so
/// checksums already on disk verify unchanged.
///
/// Chaining: the CRC of a concatenation can be computed piecewise by
/// seeding each chunk with the CRC of the prefix:
///   Crc32(a+b) == Crc32(b, /*seed=*/Crc32(a))
uint32_t Crc32(const uint8_t* data, size_t len, uint32_t seed = 0);

namespace internal {

/// The original byte-at-a-time table implementation, kept as the
/// bit-exactness reference for tests and as the portable fallback.
uint32_t Crc32ByteAtATime(const uint8_t* data, size_t len, uint32_t seed = 0);

/// The slice-by-8 software path (exposed so tests can cover it even on
/// machines where the dispatcher picks the hardware path).
uint32_t Crc32SliceBy8(const uint8_t* data, size_t len, uint32_t seed = 0);

}  // namespace internal

}  // namespace prorp::storage

#endif  // PRORP_STORAGE_CRC32_H_
