#include "faults/fault_injecting_disk_manager.h"

#include <cstring>

namespace prorp::faults {

using storage::kPageSize;
using storage::PageId;

Result<PageId> FaultInjectingDiskManager::Allocate() {
  if (auto d = plan_->Next(FaultOp::kDiskAllocate)) {
    if (d->kind == FaultKind::kDiskFull) {
      return Status::IoError("injected allocate fault: disk full (ENOSPC)");
    }
    return Status::IoError("injected allocate fault");
  }
  return inner_->Allocate();
}

Status FaultInjectingDiskManager::Release(PageId id) {
  return inner_->Release(id);
}

Status FaultInjectingDiskManager::Read(PageId id, uint8_t* buf) {
  auto d = plan_->Next(FaultOp::kDiskRead);
  if (d && d->kind == FaultKind::kIoError) {
    return Status::IoError("injected read fault");
  }
  PRORP_RETURN_IF_ERROR(inner_->Read(id, buf));
  if (d && d->kind == FaultKind::kBitFlip) {
    uint64_t bit = d->arg % (kPageSize * 8);
    buf[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
  }
  return Status::OK();
}

Status FaultInjectingDiskManager::Write(PageId id, const uint8_t* buf) {
  auto d = plan_->Next(FaultOp::kDiskWrite);
  if (!d) return inner_->Write(id, buf);
  switch (d->kind) {
    case FaultKind::kIoError:
      return Status::IoError("injected write fault");
    case FaultKind::kTornWrite: {
      // Persist only a prefix; the tail keeps whatever the page held
      // before (a crashed sector-aligned write, approximately).
      uint8_t torn[kPageSize];
      Status read = inner_->Read(id, torn);
      if (!read.ok()) std::memset(torn, 0, kPageSize);
      size_t cut = d->arg % kPageSize;
      std::memcpy(torn, buf, cut);
      PRORP_RETURN_IF_ERROR(inner_->Write(id, torn));
      return Status::IoError("injected torn page write");
    }
    case FaultKind::kBitFlip: {
      uint8_t flipped[kPageSize];
      std::memcpy(flipped, buf, kPageSize);
      uint64_t bit = d->arg % (kPageSize * 8);
      flipped[bit / 8] ^= static_cast<uint8_t>(1u << (bit % 8));
      return inner_->Write(id, flipped);
    }
    case FaultKind::kDiskFull:
      // Page writes are all-or-nothing at this layer: out of space means
      // the page never reaches the medium (the old contents stay intact).
      return Status::IoError("injected write fault: disk full (ENOSPC)");
    case FaultKind::kMsgDrop:
    case FaultKind::kMsgDuplicate:
    case FaultKind::kMsgDelay:
      break;  // message-only kinds; meaningless at a disk site
  }
  return inner_->Write(id, buf);
}

}  // namespace prorp::faults
