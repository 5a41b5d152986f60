#include "storage/buffer_pool.h"

#include <cassert>
#include <cstring>

namespace prorp::storage {

void PageGuard::MarkDirty() {
  if (pool_ != nullptr) pool_->SetDirty(id_);
}

void PageGuard::Release() {
  if (pool_ != nullptr) {
    pool_->Unpin(id_);
    pool_ = nullptr;
    data_ = nullptr;
  }
}

BufferPool::BufferPool(DiskManager* disk, size_t capacity)
    : disk_(disk), capacity_(capacity < 2 ? 2 : capacity) {
  frames_.resize(capacity_);
  for (size_t i = 0; i < capacity_; ++i) {
    frames_[i].data = std::make_unique<uint8_t[]>(kPageSize);
    free_frames_.push_back(capacity_ - 1 - i);
  }
}

BufferPool::~BufferPool() {
  // Best-effort writeback; errors here have nowhere to go.
  (void)FlushAll();
}

Result<PageGuard> BufferPool::Fetch(PageId id) {
  auto it = page_to_frame_.find(id);
  if (it != page_to_frame_.end()) {
    ++stats_.hits;
    Frame& f = frames_[it->second];
    if (f.in_lru) {
      lru_.erase(f.lru_pos);
      f.in_lru = false;
    }
    ++f.pin_count;
    return PageGuard(this, id, f.data.get() + kPageHeaderSize);
  }
  ++stats_.misses;
  PRORP_ASSIGN_OR_RETURN(size_t frame_idx, AcquireFrame());
  Frame& f = frames_[frame_idx];
  Status s = disk_->Read(id, f.data.get());
  if (!s.ok()) {
    free_frames_.push_back(frame_idx);
    return s;
  }
  ++stats_.pages_verified;
  Status v = VerifyPage(f.data.get(), id);
  if (!v.ok()) {
    // The corrupt image never reaches a caller: drop the frame so a retry
    // after repair re-reads from disk.
    ++stats_.checksum_failures;
    free_frames_.push_back(frame_idx);
    return v;
  }
  f.id = id;
  f.pin_count = 1;
  f.dirty = false;
  f.in_lru = false;
  page_to_frame_[id] = frame_idx;
  return PageGuard(this, id, f.data.get() + kPageHeaderSize);
}

Result<PageGuard> BufferPool::New() {
  PRORP_ASSIGN_OR_RETURN(PageId id, disk_->Allocate());
  Result<size_t> frame = AcquireFrame();
  if (!frame.ok()) {
    // All frames pinned: hand the fresh id back so it is not leaked.
    (void)disk_->Release(id);
    return frame.status();
  }
  size_t frame_idx = frame.value();
  Frame& f = frames_[frame_idx];
  std::memset(f.data.get(), 0, kPageSize);
  f.id = id;
  f.pin_count = 1;
  // The zeroed image must reach disk even if never otherwise written.
  f.dirty = true;
  f.in_lru = false;
  page_to_frame_[id] = frame_idx;
  return PageGuard(this, id, f.data.get() + kPageHeaderSize);
}

Status BufferPool::WriteBack(Frame& f) {
  SealPage(f.data.get(), f.id, current_lsn_);
  ++stats_.pages_sealed;
  PRORP_RETURN_IF_ERROR(disk_->Write(f.id, f.data.get()));
  ++stats_.dirty_writebacks;
  f.dirty = false;
  return Status::OK();
}

Status BufferPool::FlushAll() {
  for (Frame& f : frames_) {
    if (f.id != kInvalidPageId && f.dirty) {
      PRORP_RETURN_IF_ERROR(WriteBack(f));
    }
  }
  return Status::OK();
}

void BufferPool::Unpin(PageId id) {
  auto it = page_to_frame_.find(id);
  assert(it != page_to_frame_.end());
  Frame& f = frames_[it->second];
  assert(f.pin_count > 0);
  if (--f.pin_count == 0) {
    lru_.push_back(it->second);
    f.lru_pos = std::prev(lru_.end());
    f.in_lru = true;
  }
}

void BufferPool::SetDirty(PageId id) {
  auto it = page_to_frame_.find(id);
  assert(it != page_to_frame_.end());
  frames_[it->second].dirty = true;
}

Result<size_t> BufferPool::AcquireFrame() {
  if (!free_frames_.empty()) {
    size_t idx = free_frames_.back();
    free_frames_.pop_back();
    return idx;
  }
  if (lru_.empty()) {
    return Status::ResourceExhausted(
        "buffer pool exhausted: all frames pinned");
  }
  size_t victim = lru_.front();
  lru_.pop_front();
  Frame& f = frames_[victim];
  f.in_lru = false;
  if (f.dirty) {
    PRORP_RETURN_IF_ERROR(WriteBack(f));
  }
  page_to_frame_.erase(f.id);
  f.id = kInvalidPageId;
  ++stats_.evictions;
  return victim;
}

}  // namespace prorp::storage
