#include "faults/crash_points.h"

namespace prorp::faults {

std::vector<std::string_view> StorageCrashPoints() {
  return {kWalAppendPartial, kWalPreSync,      kBtreeMidSplit,
          kSnapshotMidCopy,  kSnapshotPreRenameSync};
}

std::vector<std::string_view> ControlPlaneCrashPoints() {
  return {kCpJournalPreSync, kCpPostJournalPreApply, kCpCheckpointMidWrite,
          kCpDispatchPreAck};
}

std::vector<std::string_view> AllCrashPoints() {
  std::vector<std::string_view> points = StorageCrashPoints();
  for (std::string_view p : ControlPlaneCrashPoints()) points.push_back(p);
  return points;
}

void CrashPointRegistry::Arm(std::string_view point, uint64_t nth,
                             uint64_t payload) {
  std::lock_guard<std::mutex> lock(mu_);
  armed_point_ = std::string(point);
  armed_nth_ = nth == 0 ? 1 : nth;
  payload_ = payload;
  hit_counts_.clear();
  fired_.store(false, std::memory_order_release);
  active_.store(true, std::memory_order_release);
}

void CrashPointRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  armed_point_.clear();
  armed_nth_ = 0;
  payload_ = 0;
  counting_ = false;
  hit_counts_.clear();
  fired_.store(false, std::memory_order_release);
  active_.store(false, std::memory_order_release);
}

void CrashPointRegistry::SetCounting(bool on) {
  std::lock_guard<std::mutex> lock(mu_);
  counting_ = on;
  if (on) hit_counts_.clear();
  active_.store(on || !armed_point_.empty(), std::memory_order_release);
}

Status CrashPointRegistry::HitActive(std::string_view point) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = ++hit_counts_[std::string(point)];
  if (!armed_point_.empty() && point == armed_point_ && n == armed_nth_ &&
      !fired_.load(std::memory_order_relaxed)) {
    fired_.store(true, std::memory_order_release);
    return Status::Aborted("injected crash at " + armed_point_);
  }
  return Status::OK();
}

uint64_t CrashPointRegistry::hits(std::string_view point) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = hit_counts_.find(point);
  return it == hit_counts_.end() ? 0 : it->second;
}

std::vector<std::string> CrashPointRegistry::observed_points() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(hit_counts_.size());
  for (const auto& [name, count] : hit_counts_) {
    if (count > 0) out.push_back(name);
  }
  return out;
}

}  // namespace prorp::faults
