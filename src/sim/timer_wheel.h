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
/// simulator's event queue, a hashed hierarchical wheel in the style of
/// Varghese and Lauck (SOSP 1987).
///
/// Three levels of 2048 slots each with power-of-two widths (1 s, 2048 s
/// ~ 34 min, 2048^2 s ~ 48.5 days) cover horizons up to 2048^3 s
/// (~272 years); anything farther sits in an overflow list that is
/// re-bucketed once its earliest deadline comes within range.  An event
/// lands in the shallowest level whose span covers its delay and is
/// indexed by its absolute time, so a slot of level L holds exactly the
/// events of one aligned 2048^L-second window.
///
/// Storage: every queued event lives in one node of a single pool, and a
/// slot is a {head, tail} pair of 32-bit node indices heading an
/// intrusive FIFO list.  A node is split across two parallel arrays, the
/// event payloads and the 32-bit links, so linking and walking lists
/// touch only the dense link array (a 100k-database fleet's links fit in
/// L2 where whole nodes do not).  Push takes a node from the free list
/// (or grows the pool), a cascade relinks nodes into lower slots without
/// copying an event, and a drain copies each event out once and frees
/// its node.
/// Memory is therefore proportional to the events queued, not to the
/// number of slots a run has touched; once live nodes fall below a
/// quarter of a pool grown past kCompactFloor nodes (a drained login
/// storm), the pool is compacted in list order and gives its capacity
/// back.
///
/// Occupancy is two-level: a bitmap of 32 x uint64 words per level, and
/// a 32-bit summary of that level's non-empty words.  Finding the next
/// occupied slot costs two countr_zero calls; an empty level costs one
/// compare.  Push is O(1); PopNextTick jumps `now` straight to the next
/// occupied slot (no per-empty-tick work, which matters when a paused
/// fleet sleeps for hours of virtual time) and cascades at most one
/// upper-level slot per step, so amortized cost per event is O(levels).
///
/// Determinism contract: events come out in strict (time, seq) order, seq
/// being the global push counter, exactly as from a binary heap keyed on
/// (time, seq).  The wheel keeps that order because (a) PopNextTick
/// always drains the globally earliest pending time, (b) a drained slot
/// is handed out in seq order: its list is in push order unless a
/// cascade appended older events after younger ones, which the drain
/// detects while walking and then sorts, and (c) an upper-level slot
/// whose window STARTS at the next L0 deadline is cascaded before that L0
/// slot is drained, so same-time events split across levels are reunited
/// in one slot before the drain.  TimerWheelTest checks the order against
/// a reference priority queue; DESIGN.md section 13 has the full
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
  /// in an overdue list drained ahead of everything else); times before
  /// the initial epoch 0 are not supported.
  void Push(const Event& e) {
    ++size_;
    uint32_t n = NewNode(e);
    if (e.time <= now_) {
      Append(overdue_, n);
      return;
    }
    Place(n);
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
      // the overdue list, so this check lives inside the loop.
      if (overdue_.head != kNil) {
        Drain(overdue_, out, [](const Event& a, const Event& b) {
          if (a.time != b.time) return a.time < b.time;
          return a.seq < b.seq;
        });
        return true;
      }
      // All levels drained: jump to the overflow horizon and re-bucket.
      if (size_ == overflow_size_) {
        now_ = overflow_min_;
        FlushOverflow();
        continue;
      }
      MaybeFlushOverflow();
      if (overdue_.head != kNil) continue;
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
      size_t idx = SlotIndex(0, t0);
      List slot = levels_[0].slots[idx];
      ClearSlot(0, idx);
      Drain(slot, out, [](const Event& a, const Event& b) {
        return a.seq < b.seq;
      });
      return true;
    }
  }

  /// Bytes of event storage: the node pool's capacity, payloads and
  /// links.  The fixed per-slot list heads and occupancy bitmaps (about
  /// 49 KB, whatever the load) are not counted.  The metric the
  /// post-storm compaction regression tests watch.
  size_t MemoryBytes() const {
    return events_.capacity() * sizeof(Event) +
           next_.capacity() * sizeof(uint32_t);
  }

 private:
  static constexpr int kSlotBits = 11;  // 2048 slots per level
  static constexpr size_t kSlots = size_t{1} << kSlotBits;
  static constexpr size_t kMask = kSlots - 1;
  static constexpr int kLevels = 3;
  static constexpr size_t kWords = kSlots / 64;
  static_assert(kWords == 32, "the summary holds one bit per bitmap word");
  /// A pool grown past this many nodes (a login storm) is compacted once
  /// live nodes fall below a quarter of it.
  static constexpr size_t kCompactFloor = 1024;
  static constexpr uint32_t kNil = std::numeric_limits<uint32_t>::max();

  /// An intrusive FIFO list of pool nodes.
  struct List {
    uint32_t head = kNil;
    uint32_t tail = kNil;
  };

  struct Level {
    std::array<List, kSlots> slots;
    std::array<uint64_t, kWords> bitmap{};
    uint32_t summary = 0;  // bit w set iff bitmap[w] != 0
  };

  static constexpr int Shift(int level) { return level * kSlotBits; }

  size_t SlotIndex(int level, int64_t time) const {
    return static_cast<size_t>(time >> Shift(level)) & kMask;
  }

  /// Horizon of `level`: deltas below this fit somewhere in it or below.
  static constexpr int64_t Horizon(int level) {
    return int64_t{1} << Shift(level + 1);
  }

  uint32_t NewNode(const Event& e) {
    if (free_ != kNil) {
      uint32_t n = free_;
      free_ = next_[n];
      events_[n] = e;
      return n;
    }
    events_.push_back(e);
    next_.push_back(kNil);
    return static_cast<uint32_t>(events_.size() - 1);
  }

  void Append(List& list, uint32_t n) {
    next_[n] = kNil;
    if (list.tail == kNil) {
      list.head = n;
    } else {
      next_[list.tail] = n;
    }
    list.tail = n;
  }

  /// Links node `n` into the slot of the shallowest level that covers
  /// its time, or into the overflow list.
  void Place(uint32_t n) {
    const int64_t time = events_[n].time;
    for (int level = 0; level < kLevels; ++level) {
      // Level fit is judged by SLOT distance, not raw delta: a delta just
      // under the level's horizon can still straddle enough slot
      // boundaries to wrap the absolute index back onto the slot holding
      // `now_` (distance kSlots reads as 0), which the occupancy scan
      // would misread as a full rotation away.  Slot distance >= 1 is
      // guaranteed for upper levels — distance 0 there implies the delta
      // fits a lower level, which was tried first.
      int64_t dist = (time >> Shift(level)) - (now_ >> Shift(level));
      if (dist < static_cast<int64_t>(kSlots)) {
        size_t idx = SlotIndex(level, time);
        Level& lvl = levels_[level];
        if (lvl.slots[idx].head == kNil) {
          lvl.bitmap[idx >> 6] |= uint64_t{1} << (idx & 63);
          lvl.summary |= uint32_t{1} << (idx >> 6);
        }
        Append(lvl.slots[idx], n);
        return;
      }
    }
    if (overflow_.head == kNil || time < overflow_min_) overflow_min_ = time;
    ++overflow_size_;
    Append(overflow_, n);
  }

  void ClearSlot(int level, size_t idx) {
    Level& lvl = levels_[level];
    lvl.slots[idx] = List{};
    uint64_t& word = lvl.bitmap[idx >> 6];
    word &= ~(uint64_t{1} << (idx & 63));
    if (word == 0) lvl.summary &= ~(uint32_t{1} << (idx >> 6));
  }

  /// Copies the detached list's events to `*out`, frees its nodes, and
  /// sorts the appended run by `less` if the walk found it out of order.
  /// May compact the pool, so no node index survives the call.
  template <typename Less>
  void Drain(List& list, std::vector<Event>* out, Less less) {
    const size_t first = out->size();
    bool sorted = true;
    for (uint32_t n = list.head; n != kNil;) {
      const Event& e = events_[n];
      if (out->size() > first && less(e, out->back())) {
        sorted = false;
      }
      out->push_back(e);
      const uint32_t next = next_[n];
      next_[n] = free_;
      free_ = n;
      n = next;
    }
    list = List{};
    size_ -= out->size() - first;
    if (!sorted) std::sort(out->begin() + first, out->end(), less);
    if (events_.size() > kCompactFloor && size_ < events_.size() / 4) {
      Compact();
    }
  }

  /// Rebuilds the pool from the live nodes alone, each list's nodes
  /// contiguous in list order, and releases the rest of its capacity.
  void Compact() {
    std::vector<Event> events;
    std::vector<uint32_t> next;
    events.reserve(size_);
    next.reserve(size_);
    auto move_list = [&](List& list) {
      List moved;
      for (uint32_t n = list.head; n != kNil; n = next_[n]) {
        events.push_back(events_[n]);
        next.push_back(kNil);
        const uint32_t m = static_cast<uint32_t>(events.size() - 1);
        if (moved.tail != kNil) next[moved.tail] = m;
        if (moved.head == kNil) moved.head = m;
        moved.tail = m;
      }
      list = moved;
    };
    move_list(overdue_);
    for (Level& lvl : levels_) {
      for (uint32_t words = lvl.summary; words != 0; words &= words - 1) {
        const size_t w = static_cast<size_t>(std::countr_zero(words));
        for (uint64_t bits = lvl.bitmap[w]; bits != 0; bits &= bits - 1) {
          move_list(lvl.slots[(w << 6) +
                              static_cast<size_t>(std::countr_zero(bits))]);
        }
      }
    }
    move_list(overflow_);
    events_.swap(events);
    next_.swap(next);
    free_ = kNil;
  }

  /// Circular distance (in slots) from this level's current position to
  /// its first occupied slot.  Distance 0 reads as a full rotation
  /// (kSlots): both callers (NextLevel0Time, NextWindowStart) check the
  /// slot containing `now_` before scanning, so by the time the scan runs
  /// the base slot is known empty and its bit can only mean wrap-around.
  /// Returns -1 when the level is empty.
  int64_t FirstOccupiedDistance(int level) const {
    const Level& lvl = levels_[level];
    if (lvl.summary == 0) return -1;
    const size_t base = SlotIndex(level, now_);
    const size_t base_word = base >> 6;
    // Bits strictly after `base` within its word.
    const uint64_t above =
        (base & 63) == 63 ? 0
                          : lvl.bitmap[base_word] &
                                (~uint64_t{0} << ((base & 63) + 1));
    size_t idx;
    if (above != 0) {
      idx = (base_word << 6) + static_cast<size_t>(std::countr_zero(above));
    } else {
      // The first non-empty word after base's, else the first one from
      // word 0 on (wrap-around; base's own word included, whose lowest
      // bit is then at or before `base`).
      const uint32_t later =
          base_word == kWords - 1
              ? 0
              : lvl.summary & (~uint32_t{0} << (base_word + 1));
      const size_t w = static_cast<size_t>(
          std::countr_zero(later != 0 ? later : lvl.summary));
      idx = (w << 6) + static_cast<size_t>(std::countr_zero(lvl.bitmap[w]));
    }
    int64_t dist = static_cast<int64_t>((idx - base + kSlots) & kMask);
    return dist == 0 ? static_cast<int64_t>(kSlots) : dist;
  }

  /// Absolute time of the earliest level-0 event, or INT64_MAX.
  int64_t NextLevel0Time() const {
    // The slot containing now_ itself may be occupied right after a
    // cascade delivered same-tick events; it must be checked before the
    // circular scan, which only reports slots strictly after now_.
    if (levels_[0].slots[SlotIndex(0, now_)].head != kNil) return now_;
    // A level-0 slot at circular distance d holds exactly time now_ + d
    // (a full-rotation distance cannot happen: deltas >= 2048 go up).
    int64_t dist = FirstOccupiedDistance(0);
    if (dist < 0) return std::numeric_limits<int64_t>::max();
    return now_ + dist;
  }

  /// Start time of the earliest occupied window of an upper level, or
  /// INT64_MAX when that level is empty.
  int64_t NextWindowStart(int level) const {
    if (levels_[level].summary == 0) {
      return std::numeric_limits<int64_t>::max();
    }
    // The slot containing now_ can hold pending events when a cascade of
    // a higher level just advanced now_ to a window boundary both levels
    // share (a 2048^2-aligned instant is also 2048-aligned); it must be
    // checked before the circular scan, which only reports slots strictly
    // after now_'s.  In every reachable such state now_ sits exactly at
    // the window start, so aligning down returns now_ itself and the
    // cascade does not move time backward.
    if (levels_[level].slots[SlotIndex(level, now_)].head != kNil) {
      return (now_ >> Shift(level)) << Shift(level);
    }
    int64_t dist = FirstOccupiedDistance(level);
    return ((now_ >> Shift(level)) + dist) << Shift(level);
  }

  /// Advances `now_` to `window_start` and relinks that slot of `level`
  /// into lower levels, in list order.  Every redistributed delta is
  /// smaller than the slot's span, so events strictly descend — no
  /// cycles.
  void Cascade(int level, int64_t window_start) {
    now_ = window_start;
    size_t idx = SlotIndex(level, window_start);
    List moved = levels_[level].slots[idx];
    ClearSlot(level, idx);
    for (uint32_t n = moved.head; n != kNil;) {
      const uint32_t next = next_[n];
      Place(n);
      n = next;
    }
  }

  void MaybeFlushOverflow() {
    if (overflow_.head != kNil &&
        overflow_min_ - now_ < Horizon(kLevels - 1)) {
      FlushOverflow();
    }
  }

  /// Re-buckets every overflow node: due ones (an exact horizon jump
  /// lands events on now_) into the overdue list, delivered by
  /// PopNextTick's next pass, the rest into the levels.
  void FlushOverflow() {
    List moved = overflow_;
    overflow_ = List{};
    overflow_size_ = 0;
    overflow_min_ = std::numeric_limits<int64_t>::max();
    for (uint32_t n = moved.head; n != kNil;) {
      const uint32_t next = next_[n];
      if (events_[n].time <= now_) {
        Append(overdue_, n);
      } else {
        Place(n);
      }
      n = next;
    }
  }

  std::array<Level, kLevels> levels_;
  // The node pool: node n is (events_[n], next_[n]).
  std::vector<Event> events_;
  std::vector<uint32_t> next_;
  uint32_t free_ = kNil;  // free nodes, chained through next_
  List overdue_;
  List overflow_;
  size_t overflow_size_ = 0;
  int64_t overflow_min_ = std::numeric_limits<int64_t>::max();
  int64_t now_ = 0;
  size_t size_ = 0;
};

}  // namespace prorp::sim

#endif  // PRORP_SIM_TIMER_WHEEL_H_
