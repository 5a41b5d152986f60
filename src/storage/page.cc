#include "storage/page.h"

#include <cstring>

#include "storage/crc32.h"

namespace prorp::storage {
namespace {

template <typename T>
T Load(const uint8_t* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

template <typename T>
void Store(uint8_t* p, T v) {
  std::memcpy(p, &v, sizeof(T));
}

}  // namespace

PageHeader ReadPageHeader(const uint8_t* page) {
  PageHeader h;
  h.crc = Load<uint32_t>(page);
  h.page_id = Load<uint32_t>(page + 4);
  h.lsn = Load<uint64_t>(page + 8);
  return h;
}

uint32_t ComputePageCrc(const uint8_t* page) {
  return Crc32(page + 4, kPageSize - 4);
}

void SealPage(uint8_t* page, PageId id, uint64_t lsn) {
  Store<uint32_t>(page + 4, id);
  Store<uint64_t>(page + 8, lsn);
  Store<uint32_t>(page, ComputePageCrc(page));
}

bool IsAllZeroPage(const uint8_t* page) {
  for (uint32_t i = 0; i < kPageSize; ++i) {
    if (page[i] != 0) return false;
  }
  return true;
}

Status VerifyPage(const uint8_t* page, PageId expected_id) {
  PageHeader h = ReadPageHeader(page);
  uint32_t actual = ComputePageCrc(page);
  if (IsAllZeroPage(page)) {
    // An all-zero image where a sealed page was expected means the
    // writeback never reached the medium (lost write).
    return Status::Corruption(
        "page image is all zero (lost write)",
        CorruptionContext{expected_id, h.crc, actual, {}});
  }
  if (h.crc != actual) {
    return Status::Corruption(
        "page checksum mismatch",
        CorruptionContext{expected_id, h.crc, actual, {}});
  }
  if (h.page_id != expected_id) {
    // CRC is intact, so the image is a valid page — just the wrong one:
    // a misdirected read or write.
    return Status::Corruption(
        "page id self-reference mismatch (misdirected I/O)",
        CorruptionContext{expected_id, h.crc, actual, {}});
  }
  return Status::OK();
}

}  // namespace prorp::storage
