#include "faults/fault_plan.h"

namespace prorp::faults {

void FaultPlan::FailNth(FaultOp op, uint64_t nth, FaultKind kind) {
  scripted_[static_cast<size_t>(op)].push_back({nth, kind, std::nullopt});
}

void FaultPlan::FailNthWithArg(FaultOp op, uint64_t nth, FaultKind kind,
                               uint64_t arg) {
  scripted_[static_cast<size_t>(op)].push_back({nth, kind, arg});
}

void FaultPlan::FailWithProbability(FaultOp op, double p, FaultKind kind) {
  probabilistic_[static_cast<size_t>(op)].push_back({p, kind});
}

std::optional<FaultDecision> FaultPlan::Next(FaultOp op) {
  size_t i = static_cast<size_t>(op);
  uint64_t n = ++counters_[i];
  for (const ScriptedTrigger& t : scripted_[i]) {
    if (t.nth == n) {
      ++injected_;
      return FaultDecision{t.kind, t.arg.has_value() ? *t.arg
                                                     : rng_.NextU64()};
    }
  }
  // Always consume one draw per registered trigger so the stream position
  // depends only on the op sequence and the plan program, not on which
  // draws happened to fire.  The first trigger (in registration order)
  // whose draw fires wins the occurrence.
  std::optional<size_t> fired;
  const auto& probs = probabilistic_[i];
  for (size_t t = 0; t < probs.size(); ++t) {
    uint64_t draw = rng_.NextU64();
    double u = static_cast<double>(draw >> 11) * 0x1.0p-53;
    if (u < probs[t].p && !fired.has_value()) fired = t;
  }
  if (fired.has_value()) {
    ++injected_;
    return FaultDecision{probs[*fired].kind, rng_.NextU64()};
  }
  return std::nullopt;
}

}  // namespace prorp::faults
