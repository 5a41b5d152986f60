#include "telemetry/events.h"

namespace prorp::telemetry {

std::string_view EventKindName(EventKind kind) {
  switch (kind) {
    case EventKind::kLoginAvailable:
      return "login_available";
    case EventKind::kLoginReactive:
      return "login_reactive";
    case EventKind::kLogout:
      return "logout";
    case EventKind::kLogicalPause:
      return "logical_pause";
    case EventKind::kPhysicalPause:
      return "physical_pause";
    case EventKind::kProactiveResume:
      return "proactive_resume";
    case EventKind::kForcedEviction:
      return "forced_eviction";
    case EventKind::kPrediction:
      return "prediction";
  }
  return "unknown";
}

}  // namespace prorp::telemetry
