#ifndef PRORP_STORAGE_PAGE_H_
#define PRORP_STORAGE_PAGE_H_

#include <cstdint>

#include "common/status.h"

namespace prorp::storage {

/// Fixed database page size.  4 KiB matches the common unit of the SQL
/// Server storage engine family the paper's history table lives in.
inline constexpr uint32_t kPageSize = 4096;

/// Pages are addressed by dense 32-bit ids starting at 0.
using PageId = uint32_t;

inline constexpr PageId kInvalidPageId = 0xFFFFFFFFu;

/// Integrity header the buffer pool prefixes to every page; clients see
/// kPageUsableSize bytes of payload, and disk managers move raw kPageSize
/// blobs without interpreting it:
///   offset  0: uint32 crc      CRC-32 over bytes [4, kPageSize)
///   offset  4: uint32 page_id  the page's own id (catches misdirected I/O)
///   offset  8: uint64 lsn      last-writer LSN (diagnostics)
/// The CRC covers the id and LSN as well as the payload, so a flip
/// anywhere in the page — header included — fails verification.
inline constexpr uint32_t kPageHeaderSize = 16;
inline constexpr uint32_t kPageUsableSize = kPageSize - kPageHeaderSize;

struct PageHeader {
  uint32_t crc = 0;
  PageId page_id = kInvalidPageId;
  uint64_t lsn = 0;
};

/// Decodes the header from a raw kPageSize image.
PageHeader ReadPageHeader(const uint8_t* page);

/// CRC-32 over bytes [4, kPageSize) of a raw page image — what the header
/// crc field must equal.
uint32_t ComputePageCrc(const uint8_t* page);

/// Stamps the header (id, lsn, then crc) into a raw page image.  Called by
/// the buffer pool on every writeback.
void SealPage(uint8_t* page, PageId id, uint64_t lsn);

/// True when all kPageSize bytes are zero: a page the disk manager
/// allocated but that never saw a writeback.  The scrubber counts these
/// separately instead of flagging them.
bool IsAllZeroPage(const uint8_t* page);

/// Verifies a raw page image read from disk: non-zero, crc matches, and
/// the header's page_id is `expected_id`.  Returns OK or a Corruption
/// status carrying structured context (page id, expected/actual CRC).
Status VerifyPage(const uint8_t* page, PageId expected_id);

}  // namespace prorp::storage

#endif  // PRORP_STORAGE_PAGE_H_
