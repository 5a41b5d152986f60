#ifndef PRORP_STORAGE_DISK_MANAGER_H_
#define PRORP_STORAGE_DISK_MANAGER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "storage/page.h"

namespace prorp::storage {

/// Abstraction over the page file.  The buffer pool is the only client.
/// Pages are appended, except that ids handed back via Release() are
/// reused first; structural page recycling is handled above this layer by
/// the B+tree's intra-file free list.
class DiskManager {
 public:
  virtual ~DiskManager() = default;

  /// Returns a zeroed page id: a recycled id from the free list when one
  /// is available, otherwise a freshly appended page.
  virtual Result<PageId> Allocate() = 0;

  /// Returns `id` to the free list so a later Allocate() can reuse it.
  /// Used by the buffer pool to undo an allocation it could not frame
  /// (all frames pinned); the caller must no longer touch the page.
  virtual Status Release(PageId id) = 0;

  /// Reads page `id` into `buf` (kPageSize bytes).
  virtual Status Read(PageId id, uint8_t* buf) = 0;

  /// Writes `buf` (kPageSize bytes) to page `id`.
  virtual Status Write(PageId id, const uint8_t* buf) = 0;

  /// Number of allocated pages.
  virtual uint32_t num_pages() const = 0;
};

/// Heap-backed page store.  Used by unit tests and by the fleet simulator,
/// where per-database histories are small (a few KiB, Figure 10(b)) and
/// durability is provided by the WAL layered on top.
class InMemoryDiskManager : public DiskManager {
 public:
  Result<PageId> Allocate() override;
  Status Release(PageId id) override;
  Status Read(PageId id, uint8_t* buf) override;
  Status Write(PageId id, const uint8_t* buf) override;
  uint32_t num_pages() const override;

 private:
  std::vector<std::unique_ptr<uint8_t[]>> pages_;
  std::vector<PageId> free_ids_;
};

}  // namespace prorp::storage

#endif  // PRORP_STORAGE_DISK_MANAGER_H_
