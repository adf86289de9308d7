// Simulation: the deterministic discrete-event core of the simulated machine.
//
// Every hardware and software component of a simulated machine (LAPIC
// timers, user-interrupt delivery, kernel scheduling ticks, network arrivals,
// task completions) is an event on this one totally-ordered queue, driven
// through Run()/RunUntil()/Step() on a single thread. Ties are broken by
// schedule order, so a given seed always produces the same trace — a
// property the test suite asserts directly (and cross-checks against a
// reference heap implementation, see tests/reference_simulation.h).
//
// The queue is a hybrid of two structures chosen for the workload's shape
// (millions of short-horizon timer events per simulated second):
//
//   - A 4-level hierarchical timing wheel (Varghese & Lauck) covering the
//     next 2^24 ns (~16.7 ms). Events land at the level of their most
//     significant differing bit-group relative to the clock, so every slot
//     list is strictly "ahead" of the cursor and no lap counting is needed.
//     Per-level occupancy bitmaps let the clock jump straight to the next
//     non-empty slot instead of ticking through empty ones. Insert, cancel,
//     and pop are O(1); cascading on window entry is amortized O(1).
//
//   - An overflow min-heap (ordered by (deadline, sequence)) for events
//     beyond the wheel horizon. The two structures are merged at pop time,
//     comparing (when, seq) lexicographically, so ordering is exactly that
//     of a single queue.
//
// Event nodes are slab-allocated and intrusive: scheduling reuses freed
// nodes, cancellation unlinks in O(1), and EventIds carry a generation tag so
// a stale id (already fired/cancelled) is rejected without any hash-set
// bookkeeping. Callbacks are stored in an InplaceFunction, so the
// schedule/fire path performs no heap allocation for ordinary closures.
// Periodic events (SchedulePeriodic) re-arm their own node in place with a
// fresh sequence number before the callback runs — equivalent in event order
// to re-scheduling from the callback, without constructing a new closure.
#ifndef SRC_SIMCORE_SIMULATION_H_
#define SRC_SIMCORE_SIMULATION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/base/inplace_function.h"
#include "src/base/intrusive_list.h"
#include "src/base/time.h"

namespace skyloft {

using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

class Simulation {
 public:
  using Callback = InplaceFunction;

  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  // Current simulated time.
  TimeNs Now() const { return now_; }

  // Schedules `fn` to run at absolute time `at` (>= Now()). Returns an id
  // usable with Cancel().
  EventId ScheduleAt(TimeNs at, Callback fn);

  // Schedules `fn` to run `delay` ns from now.
  EventId ScheduleAfter(DurationNs delay, Callback fn) {
    return ScheduleAt(now_ + delay, std::move(fn));
  }

  // Schedules `fn` to run at `first`, then every `period` ns after that,
  // reusing one event node (no per-fire allocation or closure construction).
  // The returned id stays valid across fires; Cancel() stops the series.
  // Each fire is ordered as if the next occurrence had been re-scheduled at
  // the top of the callback (fresh sequence number).
  EventId SchedulePeriodic(TimeNs first, DurationNs period, Callback fn);

  // Cancels a pending event. Cancelling an already-fired or already-cancelled
  // event is a no-op that returns false. Returns true if the event was
  // pending.
  bool Cancel(EventId id);

  // Runs events until the queue is empty or Stop() is called.
  void Run();

  // Runs events with timestamp <= `deadline`; afterwards Now() == deadline
  // (unless Stop() was called earlier).
  void RunUntil(TimeNs deadline);

  // Runs exactly one event if available. Returns false when the queue is empty.
  bool Step();

  // Makes Run()/RunUntil() return after the current event completes.
  void Stop() { stopped_ = true; }

  std::size_t PendingEvents() const { return pending_; }

  // Total number of events executed so far (for determinism checks).
  std::uint64_t EventsExecuted() const { return executed_; }

 private:
  static constexpr int kSlotBits = 6;
  static constexpr int kSlots = 1 << kSlotBits;  // 64
  static constexpr int kWheelLevels = 4;         // horizon: 2^24 ns
  static constexpr int kWheelBits = kSlotBits * kWheelLevels;
  // Node location sentinels (EventNode::level).
  static constexpr std::int8_t kUnlinked = -1;      // popped / being fired
  static constexpr std::int8_t kOverflow = kWheelLevels;  // in overflow_

  struct EventNode : ListNode {
    TimeNs when = 0;
    std::uint64_t seq = 0;    // schedule order; same-time tie-break
    DurationNs period = 0;    // > 0 for periodic events
    std::uint32_t gen = 1;    // bumped on free; half of the EventId
    std::uint32_t self = 0;   // own slab index
    std::int8_t level = kUnlinked;
    std::uint8_t slot = 0;
    bool dead = false;        // fired or cancelled; awaiting reclamation
    bool in_flight = false;   // callback currently executing
    Callback fn;
  };

  static EventId IdOf(const EventNode* n) {
    return (static_cast<EventId>(n->gen) << 32) | (n->self + 1);
  }

  EventNode* Alloc();
  void Free(EventNode* n);
  // Resolves an id to its live node, or nullptr if stale/invalid.
  EventNode* NodeFor(EventId id);
  EventId ScheduleNode(TimeNs at, DurationNs period, Callback fn);
  // Places a node into the wheel or the overflow heap relative to now_.
  void InsertPending(EventNode* n);
  // Unlinks a wheel-resident node, clearing the occupancy bit if needed.
  void WheelRemove(EventNode* n);
  // Redistributes a higher-level slot into lower levels after the clock
  // enters its window.
  void Cascade(int level, int slot);
  // Advances now_ (cascading as needed) to the next event with
  // when <= limit and pops it, or returns nullptr leaving now_ <= limit.
  EventNode* NextDue(TimeNs limit);
  // Jumps the clock to a RunUntil deadline (no event fires at or before it)
  // and cascades any occupied cursor-slot windows the landing point sits
  // inside, keeping every occupied slot strictly ahead of the cursor.
  void JumpTo(TimeNs t);
  void FireNode(EventNode* n);
  void HeapPush(EventNode* n);
  void HeapPopTop();

  TimeNs now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t executed_ = 0;
  std::size_t pending_ = 0;
  bool stopped_ = false;

  IntrusiveList<EventNode> wheel_[kWheelLevels][kSlots];
  std::uint64_t occupied_[kWheelLevels] = {};
  std::vector<EventNode*> overflow_;  // min-heap by (when, seq)

  // Slab: chunked so node addresses are stable across growth.
  static constexpr std::size_t kChunkSize = 256;
  std::vector<std::unique_ptr<EventNode[]>> chunks_;
  std::vector<std::uint32_t> free_;
};

}  // namespace skyloft

#endif  // SRC_SIMCORE_SIMULATION_H_
