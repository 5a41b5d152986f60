#ifndef PRORP_FAULTS_FAULT_INJECTING_DISK_MANAGER_H_
#define PRORP_FAULTS_FAULT_INJECTING_DISK_MANAGER_H_

#include <memory>

#include "faults/fault_plan.h"
#include "storage/disk_manager.h"

namespace prorp::faults {

/// Decorator over any DiskManager that consults a FaultPlan before each
/// operation and injects I/O errors, torn partial-page writes, and single
/// bit flips.  The buffer pool (the only DiskManager client) cannot tell
/// it apart from a flaky disk.
///
/// Fault semantics per operation:
///  * Read    — kIoError fails the read; kBitFlip completes the read but
///              flips one deterministic bit in the returned page.
///  * Write   — kIoError fails before any byte lands; kTornWrite persists
///              only a prefix of the page (the tail keeps its previous
///              contents); kBitFlip persists the page with one bit flipped.
///  * Allocate — kIoError and kDiskFull fail the call; Release passes
///              through.
class FaultInjectingDiskManager : public storage::DiskManager {
 public:
  /// `plan` must outlive this manager.  Owns the inner manager.
  FaultInjectingDiskManager(std::unique_ptr<storage::DiskManager> inner,
                            FaultPlan* plan)
      : inner_(std::move(inner)), plan_(plan) {}

  Result<storage::PageId> Allocate() override;
  Status Release(storage::PageId id) override;
  Status Read(storage::PageId id, uint8_t* buf) override;
  Status Write(storage::PageId id, const uint8_t* buf) override;
  uint32_t num_pages() const override { return inner_->num_pages(); }

  storage::DiskManager* inner() { return inner_.get(); }

 private:
  std::unique_ptr<storage::DiskManager> inner_;
  FaultPlan* plan_;
};

}  // namespace prorp::faults

#endif  // PRORP_FAULTS_FAULT_INJECTING_DISK_MANAGER_H_
