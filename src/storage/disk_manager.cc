#include "storage/disk_manager.h"

#include <cstring>

namespace prorp::storage {

Result<PageId> InMemoryDiskManager::Allocate() {
  if (!free_ids_.empty()) {
    PageId id = free_ids_.back();
    free_ids_.pop_back();
    std::memset(pages_[id].get(), 0, kPageSize);
    return id;
  }
  if (pages_.size() >= kInvalidPageId) {
    return Status::ResourceExhausted("page id space exhausted");
  }
  auto page = std::make_unique<uint8_t[]>(kPageSize);
  std::memset(page.get(), 0, kPageSize);
  pages_.push_back(std::move(page));
  return static_cast<PageId>(pages_.size() - 1);
}

Status InMemoryDiskManager::Release(PageId id) {
  if (id >= pages_.size()) {
    return Status::OutOfRange("release of unallocated page");
  }
  free_ids_.push_back(id);
  return Status::OK();
}

Status InMemoryDiskManager::Read(PageId id, uint8_t* buf) {
  if (id >= pages_.size()) {
    return Status::OutOfRange("read of unallocated page");
  }
  std::memcpy(buf, pages_[id].get(), kPageSize);
  return Status::OK();
}

Status InMemoryDiskManager::Write(PageId id, const uint8_t* buf) {
  if (id >= pages_.size()) {
    return Status::OutOfRange("write of unallocated page");
  }
  std::memcpy(pages_[id].get(), buf, kPageSize);
  return Status::OK();
}

uint32_t InMemoryDiskManager::num_pages() const {
  return static_cast<uint32_t>(pages_.size());
}

}  // namespace prorp::storage
