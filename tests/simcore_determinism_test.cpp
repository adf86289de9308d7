// Determinism property tests: the timing-wheel Simulation must execute the
// exact same event sequence as the reference priority-queue engine
// (tests/reference_simulation.h) for any schedule, including periodic
// events, cancellations, and deadline-chunked execution, including
// deadlines that sit on timing-wheel window boundaries.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "src/base/random.h"
#include "src/simcore/simulation.h"
#include "tests/reference_simulation.h"

namespace skyloft {
namespace {

// ---- Engine adapters ----
//
// Both engines expose the same driver-facing surface. Periodic events on the
// reference engine are emulated the way the seed code did it (re-schedule a
// fresh event at the top of the callback), which is exactly the ordering the
// wheel's rearm-in-place fast path must reproduce.

struct WheelEngine {
  using OneShot = EventId;
  using Periodic = EventId;

  TimeNs Now() const { return sim.Now(); }

  template <typename F>
  OneShot At(TimeNs at, F fn) {
    return sim.ScheduleAt(at, std::move(fn));
  }

  template <typename F>
  Periodic Every(TimeNs first, DurationNs period, F fn) {
    return sim.SchedulePeriodic(first, period, std::move(fn));
  }

  bool CancelOneShot(OneShot h) { return sim.Cancel(h); }
  bool CancelPeriodic(Periodic h) { return sim.Cancel(h); }

  void RunUntil(TimeNs deadline) { sim.RunUntil(deadline); }
  void Run() { sim.Run(); }
  std::uint64_t Executed() const { return sim.EventsExecuted(); }
  std::size_t Pending() const { return sim.PendingEvents(); }

  Simulation sim;
};

struct ReferenceEngine {
  using OneShot = ReferenceSimulation::EventId;

  struct PeriodicState {
    ReferenceSimulation* sim = nullptr;
    ReferenceSimulation::EventId current = ReferenceSimulation::kInvalidId;
    DurationNs period = 0;
    std::function<void()> body;
    std::function<void()> fire;
  };
  using Periodic = std::shared_ptr<PeriodicState>;

  TimeNs Now() const { return sim.Now(); }

  template <typename F>
  OneShot At(TimeNs at, F fn) {
    return sim.ScheduleAt(at, std::move(fn));
  }

  template <typename F>
  Periodic Every(TimeNs first, DurationNs period, F fn) {
    auto state = std::make_shared<PeriodicState>();
    state->sim = &sim;
    state->period = period;
    state->body = std::move(fn);
    // Raw capture: `fire` lives inside the state it re-arms, so a shared_ptr
    // capture would be a self-cycle (leak). The caller keeps the state alive.
    state->fire = [s = state.get()] {
      // Seed idiom: re-arm first (fresh id => fresh sequence number), then
      // run the payload.
      s->current = s->sim->ScheduleAt(s->sim->Now() + s->period, s->fire);
      s->body();
    };
    state->current = sim.ScheduleAt(first, state->fire);
    return state;
  }

  bool CancelOneShot(OneShot h) { return sim.Cancel(h); }
  bool CancelPeriodic(const Periodic& h) { return sim.Cancel(h->current); }

  void RunUntil(TimeNs deadline) { sim.RunUntil(deadline); }
  void Run() { sim.Run(); }
  std::uint64_t Executed() const { return sim.EventsExecuted(); }
  std::size_t Pending() const { return sim.PendingEvents(); }

  ReferenceSimulation sim;
};

// Delay distribution biased toward timing-wheel edge cases: same-tick,
// level boundaries (64, 4096, 2^18), the wheel horizon (2^24, where events
// spill into the overflow heap), and genuinely far futures.
DurationNs RandomDelay(Rng& rng) {
  switch (rng.NextBelow(8)) {
    case 0:
      return static_cast<DurationNs>(rng.NextBelow(4));
    case 1:
      return 62 + static_cast<DurationNs>(rng.NextBelow(5));
    case 2:
      return 4094 + static_cast<DurationNs>(rng.NextBelow(5));
    case 3:
      return (DurationNs{1} << 18) - 2 + static_cast<DurationNs>(rng.NextBelow(5));
    case 4:
      return (DurationNs{1} << 24) - 3 + static_cast<DurationNs>(rng.NextBelow(6));
    case 5:
      return static_cast<DurationNs>(rng.NextBelow(1000));
    case 6:
      return static_cast<DurationNs>(rng.NextBelow(200'000));
    default:
      return static_cast<DurationNs>(rng.NextBelow(40'000'000));
  }
}

// Drives one engine through a randomized self-propagating schedule and
// records the (time, tag) trace plus every Cancel() result.
template <typename Engine>
struct Driver {
  explicit Driver(std::uint64_t seed) : rng(seed) {}

  void SpawnOneShot(DurationNs delay) {
    const int tag = next_tag++;
    handles.push_back(engine.At(engine.Now() + delay, [this, tag] { OnFire(tag); }));
  }

  void SpawnPeriodic(DurationNs first, DurationNs period, int fires) {
    const int tag = next_tag++;
    auto fires_left = std::make_shared<int>(fires);
    // The handle lives in `periodics` (not in the callback's captures): for
    // the reference engine the callback is stored inside the handle's own
    // state, so capturing the handle would cycle and leak.
    const std::size_t slot = periodics.size();
    periodics.emplace_back();
    periodics[slot] = engine.Every(engine.Now() + first, period, [this, tag, fires_left, slot] {
      trace.push_back({engine.Now(), tag});
      if (--*fires_left == 0) {
        cancel_results.push_back(engine.CancelPeriodic(periodics[slot]));
      }
    });
  }

  void OnFire(int tag) {
    trace.push_back({engine.Now(), tag});
    if (budget > 0) {
      const int kids = static_cast<int>(rng.NextBelow(3));
      for (int i = 0; i < kids && budget > 0; i++) {
        budget--;
        SpawnOneShot(RandomDelay(rng));
      }
    }
    if (!handles.empty() && rng.NextBool(0.25)) {
      const auto victim = rng.NextBelow(handles.size());
      cancel_results.push_back(engine.CancelOneShot(handles[victim]));
    }
    if (budget > 8 && rng.NextBool(0.04)) {
      const int fires = 3 + static_cast<int>(rng.NextBelow(6));
      budget -= fires;
      SpawnPeriodic(1 + RandomDelay(rng) % 10'000, 1 + RandomDelay(rng) % 50'000, fires);
    }
  }

  Engine engine;
  Rng rng;
  std::vector<typename Engine::OneShot> handles;
  std::vector<typename Engine::Periodic> periodics;
  std::vector<std::pair<TimeNs, int>> trace;
  std::vector<bool> cancel_results;
  int next_tag = 0;
  int budget = 2500;
};

// The driver is heap-allocated: its callbacks capture `this`, and the engine
// itself is immovable.
template <typename Engine>
std::unique_ptr<Driver<Engine>> RunSchedule(std::uint64_t seed) {
  auto driver = std::make_unique<Driver<Engine>>(seed);
  for (int i = 0; i < 40; i++) {
    driver->budget--;
    driver->SpawnOneShot(RandomDelay(driver->rng));
  }
  // Chunked execution exercises the RunUntil deadline paths (clock jumps
  // into half-open windows) in between full drains.
  TimeNs deadline = 0;
  for (int chunk = 0; chunk < 200 && driver->engine.Pending() > 0; chunk++) {
    deadline += Millis(1);
    driver->engine.RunUntil(deadline);
  }
  driver->engine.Run();
  return driver;
}

TEST(SimcoreDeterminismTest, WheelMatchesReferenceForManySeeds) {
  for (std::uint64_t seed = 1; seed <= 12; seed++) {
    auto wheel = RunSchedule<WheelEngine>(seed);
    auto ref = RunSchedule<ReferenceEngine>(seed);
    ASSERT_EQ(wheel->trace.size(), ref->trace.size()) << "seed " << seed;
    for (std::size_t i = 0; i < wheel->trace.size(); i++) {
      ASSERT_EQ(wheel->trace[i], ref->trace[i])
          << "seed " << seed << " diverges at event " << i;
    }
    EXPECT_EQ(wheel->engine.Executed(), ref->engine.Executed()) << "seed " << seed;
    EXPECT_EQ(wheel->cancel_results, ref->cancel_results) << "seed " << seed;
    EXPECT_EQ(wheel->engine.Pending(), 0u) << "seed " << seed;
    EXPECT_EQ(ref->engine.Pending(), 0u) << "seed " << seed;
  }
}

// Re-running the wheel with the same seed must give the identical trace
// (self-determinism, independent of the reference).
TEST(SimcoreDeterminismTest, WheelIsSelfDeterministic) {
  auto a = RunSchedule<WheelEngine>(7);
  auto b = RunSchedule<WheelEngine>(7);
  EXPECT_EQ(a->trace, b->trace);
  EXPECT_EQ(a->engine.Executed(), b->engine.Executed());
}

// ---- Deadlines on wheel window boundaries ----
//
// RunUntil lands the clock on its deadline through JumpTo. The chunked
// schedule above puts its deadlines on whole milliseconds: level-1 window
// starts (and level-2 ones at multiples of 64 ms), never one before or after
// a window start, never a level-3 window start or the 2^24 horizon. Here the
// deadlines are W-1, W and W+1 for a level-1 (64), level-2 (4,096) and
// level-3 (262,144) window start W and for the horizon, with events on and
// around each W, inside the window it opens and in the next one. The trace,
// the cancel results, the clock and the number of events fired by every
// deadline must match the reference engine's.

constexpr TimeNs kBoundaryWindows[] = {64 * 5, 4096 * 3, 262'144 * 2, TimeNs{1} << 24};

// (clock, events traced so far) after each RunUntil.
using Checkpoints = std::vector<std::pair<TimeNs, std::size_t>>;

template <typename Engine>
std::unique_ptr<Driver<Engine>> RunBoundarySchedule(std::uint64_t seed,
                                                    Checkpoints* checkpoints) {
  auto driver = std::make_unique<Driver<Engine>>(seed);
  for (const TimeNs w : kBoundaryWindows) {
    for (const DurationNs offset : {-2, -1, 0, 1, 2, 63, 64, 4095, 4096, 262'143, 262'144}) {
      driver->budget--;
      driver->SpawnOneShot(w + offset);
    }
    // Periodic fires on every deadline around W, and on W - 64, W, W + 64.
    driver->budget -= 8;
    driver->SpawnPeriodic(w - 2, 1, 5);
    driver->SpawnPeriodic(w - 64, 64, 3);
  }
  for (const TimeNs w : kBoundaryWindows) {
    for (const TimeNs deadline : {w - 1, w, w + 1}) {
      driver->engine.RunUntil(deadline);
      checkpoints->push_back({driver->engine.Now(), driver->trace.size()});
    }
  }
  driver->engine.Run();
  return driver;
}

TEST(SimcoreDeterminismTest, WheelMatchesReferenceWithDeadlinesOnWindowBoundaries) {
  std::vector<TimeNs> deadlines;
  for (const TimeNs w : kBoundaryWindows) {
    deadlines.insert(deadlines.end(), {w - 1, w, w + 1});
  }
  for (std::uint64_t seed = 1; seed <= 8; seed++) {
    Checkpoints wheel_checkpoints;
    Checkpoints ref_checkpoints;
    auto wheel = RunBoundarySchedule<WheelEngine>(seed, &wheel_checkpoints);
    auto ref = RunBoundarySchedule<ReferenceEngine>(seed, &ref_checkpoints);
    ASSERT_EQ(ref_checkpoints.size(), deadlines.size());
    for (std::size_t i = 0; i < deadlines.size(); i++) {
      EXPECT_EQ(ref_checkpoints[i].first, deadlines[i]) << "seed " << seed;
    }
    EXPECT_EQ(wheel_checkpoints, ref_checkpoints) << "seed " << seed;
    ASSERT_EQ(wheel->trace.size(), ref->trace.size()) << "seed " << seed;
    for (std::size_t i = 0; i < wheel->trace.size(); i++) {
      ASSERT_EQ(wheel->trace[i], ref->trace[i])
          << "seed " << seed << " diverges at event " << i;
    }
    EXPECT_EQ(wheel->cancel_results, ref->cancel_results) << "seed " << seed;
    EXPECT_EQ(wheel->engine.Pending(), 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace skyloft
