#include "src/simcore/simulation.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "src/base/logging.h"

namespace skyloft {

namespace {

inline constexpr TimeNs kNoLimit = std::numeric_limits<TimeNs>::max();

}  // namespace

Simulation::EventNode* Simulation::Alloc() {
  if (free_.empty()) {
    auto chunk = std::make_unique<EventNode[]>(kChunkSize);
    const auto base = static_cast<std::uint32_t>(chunks_.size() * kChunkSize);
    for (std::size_t i = kChunkSize; i-- > 0;) {
      chunk[i].self = base + static_cast<std::uint32_t>(i);
      free_.push_back(base + static_cast<std::uint32_t>(i));
    }
    chunks_.push_back(std::move(chunk));
  }
  const std::uint32_t index = free_.back();
  free_.pop_back();
  return &chunks_[index / kChunkSize][index % kChunkSize];
}

void Simulation::Free(EventNode* n) {
  n->fn.Reset();  // release captured resources promptly
  n->gen++;       // invalidate every outstanding id for this slot
  n->level = kUnlinked;
  n->dead = false;
  n->in_flight = false;
  free_.push_back(n->self);
}

Simulation::EventNode* Simulation::NodeFor(EventId id) {
  if (id == kInvalidEventId) {
    return nullptr;
  }
  const std::uint64_t index = (id & 0xffffffffull) - 1;
  if (index >= chunks_.size() * kChunkSize) {
    return nullptr;
  }
  EventNode* n = &chunks_[index / kChunkSize][index % kChunkSize];
  if (n->gen != static_cast<std::uint32_t>(id >> 32)) {
    return nullptr;  // slot was reused: the id refers to a dead event
  }
  return n;
}

EventId Simulation::ScheduleNode(TimeNs at, DurationNs period, Callback fn) {
  SKYLOFT_CHECK(at >= now_) << "cannot schedule in the past: " << at << " < " << now_;
  EventNode* n = Alloc();
  n->when = at;
  n->seq = next_seq_++;
  n->period = period;
  n->fn = std::move(fn);
  pending_++;
  InsertPending(n);
  return IdOf(n);
}

EventId Simulation::ScheduleAt(TimeNs at, Callback fn) {
  return ScheduleNode(at, /*period=*/0, std::move(fn));
}

EventId Simulation::SchedulePeriodic(TimeNs first, DurationNs period, Callback fn) {
  SKYLOFT_CHECK(period > 0) << "periodic event needs a positive period";
  return ScheduleNode(first, period, std::move(fn));
}

void Simulation::InsertPending(EventNode* n) {
  const std::uint64_t x =
      static_cast<std::uint64_t>(n->when) ^ static_cast<std::uint64_t>(now_);
  int level = 0;
  if (x != 0) {
    level = (63 - __builtin_clzll(x)) / kSlotBits;
  }
  if (level >= kWheelLevels) {
    n->level = kOverflow;
    HeapPush(n);
    return;
  }
  const int slot = static_cast<int>(
      (static_cast<std::uint64_t>(n->when) >> (kSlotBits * level)) & (kSlots - 1));
  n->level = static_cast<std::int8_t>(level);
  n->slot = static_cast<std::uint8_t>(slot);
  wheel_[level][slot].PushBack(n);
  occupied_[level] |= 1ull << slot;
}

void Simulation::WheelRemove(EventNode* n) {
  auto& list = wheel_[n->level][n->slot];
  list.Remove(n);
  if (list.Empty()) {
    occupied_[n->level] &= ~(1ull << n->slot);
  }
  n->level = kUnlinked;
}

void Simulation::Cascade(int level, int slot) {
  auto& list = wheel_[level][slot];
  occupied_[level] &= ~(1ull << slot);
  // Pop front-to-back and reinsert: each node lands at a strictly lower
  // level (its upper bit-groups now match the clock), preserving sequence
  // order within every destination slot.
  while (EventNode* n = list.PopFront()) {
    InsertPending(n);
  }
}

void Simulation::HeapPush(EventNode* n) {
  auto after = [](const EventNode* a, const EventNode* b) {
    if (a->when != b->when) {
      return a->when > b->when;
    }
    return a->seq > b->seq;
  };
  overflow_.push_back(n);
  std::push_heap(overflow_.begin(), overflow_.end(), after);
}

void Simulation::HeapPopTop() {
  auto after = [](const EventNode* a, const EventNode* b) {
    if (a->when != b->when) {
      return a->when > b->when;
    }
    return a->seq > b->seq;
  };
  std::pop_heap(overflow_.begin(), overflow_.end(), after);
  overflow_.pop_back();
}

bool Simulation::Cancel(EventId id) {
  EventNode* n = NodeFor(id);
  if (n == nullptr || n->dead) {
    return false;
  }
  if (n->level == kUnlinked) {
    // A one-shot that is executing right now: it already fired.
    return false;
  }
  pending_--;
  if (n->level == kOverflow) {
    // Heap-resident: mark dead and reclaim lazily when it surfaces at the
    // top, keeping Cancel O(1).
    n->dead = true;
    return true;
  }
  WheelRemove(n);
  if (n->in_flight) {
    n->dead = true;  // periodic cancelled from inside its own callback
  } else {
    Free(n);
  }
  return true;
}

Simulation::EventNode* Simulation::NextDue(TimeNs limit) {
  for (;;) {
    // Reclaim cancelled events that have drifted to the overflow top.
    while (!overflow_.empty() && overflow_.front()->dead) {
      EventNode* dead = overflow_.front();
      HeapPopTop();
      Free(dead);
    }
    EventNode* over = overflow_.empty() ? nullptr : overflow_.front();

    // Level 0: slots at or ahead of the cursor within the current 64-ns
    // window hold events due at exactly window_base + slot.
    const int c0 = static_cast<int>(static_cast<std::uint64_t>(now_) & (kSlots - 1));
    const std::uint64_t m0 = occupied_[0] & (~0ull << c0);
    if (m0 != 0) {
      const int s = __builtin_ctzll(m0);
      const TimeNs t = (now_ - c0) + s;
      if (t <= limit) {
        EventNode* head = wheel_[0][s].Front();
        if (over == nullptr || over->when > t ||
            (over->when == t && over->seq > head->seq)) {
          WheelRemove(head);
          now_ = t;
          return head;
        }
      }
      // The wheel's earliest event loses to the overflow top or the limit.
      if (over != nullptr && over->when <= limit && over->when <= t) {
        HeapPopTop();
        over->level = kUnlinked;
        now_ = over->when;
        return over;
      }
      return nullptr;  // nothing due at or before `limit`
    }

    // No level-0 events in the current window: enter the next occupied
    // window (lowest level first — its events precede all higher levels').
    // Slots at or below the cursor are excluded: JumpTo keeps the invariant
    // that every occupied slot lies strictly ahead of the cursor, so the
    // cursor's own window was already cascaded when the clock entered it.
    bool cascaded = false;
    for (int level = 1; level < kWheelLevels; level++) {
      const int cl = static_cast<int>(
          (static_cast<std::uint64_t>(now_) >> (kSlotBits * level)) & (kSlots - 1));
      const std::uint64_t ml = occupied_[level] & ~((2ull << cl) - 1);
      if (ml == 0) {
        continue;
      }
      const int s = __builtin_ctzll(ml);
      const std::uint64_t span = (1ull << (kSlotBits * (level + 1))) - 1;
      const TimeNs window_start = static_cast<TimeNs>(
          (static_cast<std::uint64_t>(now_) & ~span) |
          (static_cast<std::uint64_t>(s) << (kSlotBits * level)));
      if (window_start > limit || (over != nullptr && window_start > over->when)) {
        break;  // everything in the wheel starts past the cap
      }
      now_ = window_start;
      Cascade(level, s);
      cascaded = true;
      break;
    }
    if (cascaded) {
      continue;
    }

    // The wheel has nothing due before the cap; the overflow heap decides.
    // Jumping now_ to the overflow deadline is safe: every occupied wheel
    // window starts after it, so no cascade is skipped.
    if (over != nullptr && over->when <= limit) {
      HeapPopTop();
      over->level = kUnlinked;
      now_ = over->when;
      return over;
    }
    return nullptr;
  }
}

void Simulation::JumpTo(TimeNs t) {
  // RunUntil is the one caller: it lands the clock on its deadline after
  // NextDue(deadline) found nothing due at or before it. The NextDue scans
  // never look at the cursor's own slot — they rely on every occupied slot
  // being strictly ahead of the cursor — so if `t` landed inside an occupied
  // window, the events later in it would be lost. Cascade the landing window
  // at every level, top-down (a level-3 cascade may populate the level-2
  // cursor slot, and so on); everything re-inserts ahead of the new cursor
  // because no pending event is at or before `t`.
  //
  // With RunUntil's inclusive deadline the cascade finds nothing: NextDue
  // stops at the first occupied window that starts past the deadline, and
  // every other occupied window starts later still, so the deadline lies
  // before all of them. Only an exclusive end (fire events before `t`, then
  // land on `t`) could land inside an occupied window. The cascade stays so
  // the invariant does not rest on that argument.
  now_ = t;
  for (int level = kWheelLevels - 1; level >= 1; level--) {
    const int cl = static_cast<int>(
        (static_cast<std::uint64_t>(now_) >> (kSlotBits * level)) & (kSlots - 1));
    if ((occupied_[level] >> cl) & 1u) {
      Cascade(level, cl);
    }
  }
}

void Simulation::FireNode(EventNode* n) {
  executed_++;
  pending_--;
  n->in_flight = true;
  if (n->period > 0) {
    // Periodic fast path: re-arm the same node before running the callback,
    // with a fresh sequence number so same-time ordering matches what a
    // re-schedule at the top of the callback would produce.
    n->when += n->period;
    n->seq = next_seq_++;
    pending_++;
    InsertPending(n);
  } else {
    n->dead = true;  // fired: Cancel() on this id must now return false
  }
  n->fn();  // may schedule/cancel anything, including this very node
  n->in_flight = false;
  if (n->dead && n->level != kOverflow) {
    Free(n);  // heap-resident corpses are reclaimed at the top instead
  }
}

void Simulation::Run() {
  stopped_ = false;
  while (!stopped_) {
    EventNode* n = NextDue(kNoLimit);
    if (n == nullptr) {
      break;
    }
    FireNode(n);
  }
}

void Simulation::RunUntil(TimeNs deadline) {
  stopped_ = false;
  while (!stopped_) {
    EventNode* n = NextDue(deadline);
    if (n == nullptr) {
      break;
    }
    FireNode(n);
  }
  if (!stopped_ && now_ < deadline) {
    JumpTo(deadline);
  }
}

bool Simulation::Step() {
  EventNode* n = NextDue(kNoLimit);
  if (n == nullptr) {
    return false;
  }
  FireNode(n);
  return true;
}

}  // namespace skyloft
