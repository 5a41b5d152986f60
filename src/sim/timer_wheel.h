#ifndef PRORP_SIM_TIMER_WHEEL_H_
#define PRORP_SIM_TIMER_WHEEL_H_

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace prorp::sim {

/// Hierarchical timer wheel over a 1-second virtual-time tick: the fleet
/// simulator's event queue.
///
/// Three levels of 2048 slots each with power-of-two widths (1 s, 2048 s
/// ~ 34 min, 2048^2 s ~ 48.5 days) cover horizons up to 2048^3 s
/// (~272 years); anything farther sits in an overflow vector that is
/// re-bucketed once its earliest deadline comes within range.  An event
/// lands in the shallowest level whose span covers its delay and is
/// indexed by its absolute time, so a slot of level L holds exactly the
/// events of one aligned 2048^L-second window.  Per-level occupancy
/// bitmaps (32 x uint64 words) make "find the next non-empty slot" a
/// circular countr_zero scan instead of a walk.
///
/// Push is O(1); PopNextTick jumps `now` straight to the next occupied
/// slot (no per-empty-tick work, which matters when a paused fleet sleeps
/// for hours of virtual time) and cascades at most one upper-level slot
/// per call, so amortized cost per event is O(levels).
///
/// Determinism contract: events come out in strict (time, seq) order, seq
/// being the global push counter, exactly as from a binary heap keyed on
/// (time, seq).  The wheel keeps that order because (a) PopNextTick
/// always drains the globally earliest pending time, (b) a drained slot
/// is sorted by seq before being handed out, and (c) an upper-level slot
/// whose window STARTS at the next L0 deadline is cascaded before that L0
/// slot is drained, so same-time events split across levels are reunited
/// in one slot before the seq sort.  TimerWheelTest checks the order
/// against a reference priority queue; DESIGN.md section 13 has the full
/// argument.
///
/// `Event` must expose `int64_t time` and a unique, monotonically
/// assigned `uint64_t seq`.
template <typename Event>
class TimerWheel {
 public:
  TimerWheel() = default;

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  int64_t now() const { return now_; }

  /// Inserts an event.  Times at or before `now()` are legal (they park
  /// in an overdue bucket drained ahead of everything else); times before
  /// the initial epoch 0 are not supported.
  void Push(const Event& e) {
    ++size_;
    int64_t delta = e.time - now_;
    if (delta <= 0) {
      overdue_.push_back(e);
      return;
    }
    PlaceFuture(e);
  }

  /// Moves every event of the earliest pending tick into `*out`
  /// (appended, ascending seq) and advances `now()` to that tick.
  /// Returns false when the wheel is empty.  If overdue events exist
  /// (pushed at/before `now()`), they are all delivered first in
  /// (time, seq) order without advancing `now()`.
  bool PopNextTick(std::vector<Event>* out) {
    if (size_ == 0) return false;
    for (;;) {
      // An overflow flush can surface events due exactly at `now_` into
      // the overdue bucket, so this check lives inside the loop.
      if (!overdue_.empty()) {
        std::sort(overdue_.begin(), overdue_.end(),
                  [](const Event& a, const Event& b) {
                    if (a.time != b.time) return a.time < b.time;
                    return a.seq < b.seq;
                  });
        size_ -= overdue_.size();
        out->insert(out->end(), overdue_.begin(), overdue_.end());
        if (overdue_.capacity() > kShrinkCapacity) {
          std::vector<Event>().swap(overdue_);
        } else {
          overdue_.clear();
        }
        return true;
      }
      // All levels drained: jump to the overflow horizon and re-bucket.
      if (size_ == overflow_.size()) {
        now_ = overflow_min_;
        FlushOverflow();
        continue;
      }
      MaybeFlushOverflow();
      if (!overdue_.empty()) continue;
      int64_t t0 = NextLevel0Time();
      int64_t w1 = NextWindowStart(1);
      int64_t w2 = NextWindowStart(2);
      // Cascade upper levels first on ties: a window starting exactly at
      // the next L0 deadline may hold events of that same tick.
      if (w2 <= w1 && w2 <= t0) {
        Cascade(2, w2);
        continue;
      }
      if (w1 <= t0) {
        Cascade(1, w1);
        continue;
      }
      now_ = t0;
      std::vector<Event>& slot = levels_[0].slots[SlotIndex(0, t0)];
      std::sort(slot.begin(), slot.end(),
                [](const Event& a, const Event& b) { return a.seq < b.seq; });
      size_ -= slot.size();
      out->insert(out->end(), slot.begin(), slot.end());
      ClearSlot(0, SlotIndex(0, t0));
      return true;
    }
  }

  /// Bytes held by slot vectors, the overdue bucket, and the overflow
  /// level — the metric the post-storm shrink regression test watches.
  size_t MemoryBytes() const {
    size_t bytes = overdue_.capacity() * sizeof(Event) +
                   overflow_.capacity() * sizeof(Event);
    for (const Level& level : levels_) {
      for (const std::vector<Event>& slot : level.slots) {
        bytes += slot.capacity() * sizeof(Event);
      }
    }
    return bytes;
  }

 private:
  static constexpr int kSlotBits = 11;  // 2048 slots per level
  static constexpr size_t kSlots = size_t{1} << kSlotBits;
  static constexpr size_t kMask = kSlots - 1;
  static constexpr int kLevels = 3;
  static constexpr size_t kWords = kSlots / 64;
  /// A slot that grew past this many events during a login storm gives
  /// its capacity back once drained instead of holding the high-water
  /// mark for the rest of the run.
  static constexpr size_t kShrinkCapacity = 1024;

  struct Level {
    std::array<std::vector<Event>, kSlots> slots;
    std::array<uint64_t, kWords> bitmap{};
  };

  static constexpr int Shift(int level) { return level * kSlotBits; }

  size_t SlotIndex(int level, int64_t time) const {
    return static_cast<size_t>(time >> Shift(level)) & kMask;
  }

  /// Span (seconds) one slot of `level` covers.
  static constexpr int64_t SlotSpan(int level) {
    return int64_t{1} << Shift(level);
  }

  /// Horizon of `level`: deltas below this fit somewhere in it or below.
  static constexpr int64_t Horizon(int level) {
    return int64_t{1} << Shift(level + 1);
  }

  void PlaceFuture(const Event& e) {
    for (int level = 0; level < kLevels; ++level) {
      // Level fit is judged by SLOT distance, not raw delta: a delta just
      // under the level's horizon can still straddle enough slot
      // boundaries to wrap the absolute index back onto the slot holding
      // `now_` (distance kSlots reads as 0), which the occupancy scan
      // would misread as a full rotation away.  Slot distance >= 1 is
      // guaranteed for upper levels — distance 0 there implies the delta
      // fits a lower level, which was tried first.
      int64_t dist = (e.time >> Shift(level)) - (now_ >> Shift(level));
      if (dist < static_cast<int64_t>(kSlots)) {
        size_t idx = SlotIndex(level, e.time);
        levels_[level].slots[idx].push_back(e);
        levels_[level].bitmap[idx >> 6] |= uint64_t{1} << (idx & 63);
        return;
      }
    }
    if (overflow_.empty() || e.time < overflow_min_) overflow_min_ = e.time;
    overflow_.push_back(e);
  }

  void ClearSlot(int level, size_t idx) {
    std::vector<Event>& slot = levels_[level].slots[idx];
    if (slot.capacity() > kShrinkCapacity) {
      std::vector<Event>().swap(slot);
    } else {
      slot.clear();
    }
    levels_[level].bitmap[idx >> 6] &= ~(uint64_t{1} << (idx & 63));
  }

  /// Circular distance (in slots) from this level's current position to
  /// its first occupied slot.  Distance 0 reads as a full rotation
  /// (kSlots): both callers (NextLevel0Time, NextWindowStart) check the
  /// slot containing `now_` before scanning, so by the time the scan runs
  /// the base slot is known empty and its bit can only mean wrap-around.
  /// Returns -1 when the level is empty.
  int64_t FirstOccupiedDistance(int level) const {
    const Level& lvl = levels_[level];
    size_t base = SlotIndex(level, now_);
    for (size_t step = 0; step <= kWords; ++step) {
      size_t word = ((base >> 6) + step) % kWords;
      uint64_t bits = lvl.bitmap[word];
      if (step == 0) {
        // Bits strictly after `base` within its word.
        uint64_t mask_above =
            (base & 63) == 63 ? 0 : (~uint64_t{0} << ((base & 63) + 1));
        bits &= mask_above;
      } else if (step == kWords) {
        // Wrapped back to base's word: bits at or before `base`.
        bits &= ~uint64_t{0} >> (63 - (base & 63));
      }
      if (bits == 0) continue;
      size_t idx = (word << 6) + static_cast<size_t>(std::countr_zero(bits));
      int64_t dist =
          static_cast<int64_t>((idx - base + kSlots) & kMask);
      return dist == 0 ? static_cast<int64_t>(kSlots) : dist;
    }
    return -1;
  }

  /// Absolute time of the earliest level-0 event, or INT64_MAX.
  int64_t NextLevel0Time() const {
    // The slot containing now_ itself may be occupied right after a
    // cascade delivered same-tick events; it must be checked before the
    // circular scan, which only reports slots strictly after now_.
    if (!levels_[0].slots[SlotIndex(0, now_)].empty()) return now_;
    // A level-0 slot at circular distance d holds exactly time now_ + d
    // (a full-rotation distance cannot happen: deltas >= 2048 go up).
    int64_t dist = FirstOccupiedDistance(0);
    if (dist < 0) return std::numeric_limits<int64_t>::max();
    return now_ + dist;
  }

  /// Start time of the earliest occupied window of an upper level, or
  /// INT64_MAX when that level is empty.
  int64_t NextWindowStart(int level) const {
    // The slot containing now_ can hold pending events when a cascade of
    // a higher level just advanced now_ to a window boundary both levels
    // share (a 2048^2-aligned instant is also 2048-aligned); it must be
    // checked before the circular scan, which only reports slots strictly
    // after now_'s.  In every reachable such state now_ sits exactly at
    // the window start, so aligning down returns now_ itself and the
    // cascade does not move time backward.
    if (!levels_[level].slots[SlotIndex(level, now_)].empty()) {
      return (now_ >> Shift(level)) << Shift(level);
    }
    int64_t dist = FirstOccupiedDistance(level);
    if (dist < 0) return std::numeric_limits<int64_t>::max();
    return ((now_ >> Shift(level)) + dist) << Shift(level);
  }

  /// Advances `now_` to `window_start` and redistributes that slot of
  /// `level` into lower levels.  Every redistributed delta is smaller
  /// than the slot's span, so events strictly descend — no cycles.
  void Cascade(int level, int64_t window_start) {
    now_ = window_start;
    size_t idx = SlotIndex(level, window_start);
    std::vector<Event> moved = std::move(levels_[level].slots[idx]);
    ClearSlot(level, idx);
    for (const Event& e : moved) PlaceFuture(e);
  }

  void MaybeFlushOverflow() {
    if (!overflow_.empty() && overflow_min_ - now_ < Horizon(kLevels - 1)) {
      FlushOverflow();
    }
  }

  void FlushOverflow() {
    std::vector<Event> moved = std::move(overflow_);
    overflow_.clear();
    overflow_min_ = std::numeric_limits<int64_t>::max();
    for (const Event& e : moved) {
      if (e.time <= now_) {
        overdue_.push_back(e);  // exact horizon jump lands events on now_
      } else {
        PlaceFuture(e);
      }
    }
    // Overdue events surfaced here are delivered by the caller's next
    // PopNextTick pass; PopNextTick's own loop must notice them too.
  }

  std::array<Level, kLevels> levels_;
  std::vector<Event> overdue_;
  std::vector<Event> overflow_;
  int64_t overflow_min_ = std::numeric_limits<int64_t>::max();
  int64_t now_ = 0;
  size_t size_ = 0;
};

}  // namespace prorp::sim

#endif  // PRORP_SIM_TIMER_WHEEL_H_
