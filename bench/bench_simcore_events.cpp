// Event-core microbenchmark: timing-wheel Simulation vs the seed
// priority-queue engine (tests/reference_simulation.h).
//
// Profiles:
//   periodic_heavy  - 24 periodic timers at 100 kHz (the ApicTimer / kernel
//                     tick pattern) plus a pool of self-rescheduling one-shot
//                     events providing background pending load.
//   random_horizon  - a large pool of self-rescheduling one-shots with
//                     boundary-biased random delays (same-tick up to tens of
//                     milliseconds, crossing every wheel level and the
//                     overflow horizon) plus a schedule-and-cancel mix.
//
// Both engines run the byte-identical schedule (same seeds), the event counts
// are cross-checked, and wall-clock throughput is written to
// BENCH_simcore.json in the current directory.
//
// Usage: bench_simcore_events [--smoke]
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/base/logging.h"
#include "src/base/random.h"
#include "src/base/time.h"
#include "src/simcore/simulation.h"
#include "tests/reference_simulation.h"

namespace skyloft {
namespace {

// ---- periodic adapter (the only API difference between the engines) ----

template <typename F>
void StartPeriodic(Simulation& sim, TimeNs first, DurationNs period, F body) {
  sim.SchedulePeriodic(first, period, std::move(body));
}

template <typename F>
void StartPeriodic(ReferenceSimulation& sim, TimeNs first, DurationNs period, F body) {
  // Seed idiom: each fire re-schedules a fresh event before running the body.
  struct State {
    ReferenceSimulation* sim;
    DurationNs period;
    F body;
    std::function<void()> fire;
  };
  auto state = std::make_shared<State>(State{&sim, period, std::move(body), {}});
  state->fire = [state] {
    state->sim->ScheduleAt(state->sim->Now() + state->period, state->fire);
    state->body();
  };
  sim.ScheduleAt(first, state->fire);
}

// Boundary-biased delays: same-tick, wheel level boundaries (64, 4096, 2^18),
// the 2^24 overflow horizon, and far futures.
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
      return 1 + static_cast<DurationNs>(rng.NextBelow(1000));
    case 6:
      return 1 + static_cast<DurationNs>(rng.NextBelow(200'000));
    default:
      return 1 + static_cast<DurationNs>(rng.NextBelow(40'000'000));
  }
}

// A pool of events that each re-schedule themselves on fire, keeping a steady
// pending population. With `cancel_mix`, each fire also schedules one extra
// decoy and cancels the previously stored decoy handle, exercising the
// Cancel() path at benchmark rates.
template <typename Engine>
struct SelfRescheduler {
  SelfRescheduler(Engine& sim, std::uint64_t seed, bool cancel_mix)
      : sim_(sim), rng_(seed), cancel_mix_(cancel_mix) {}

  void Seed(int population) {
    decoys_.assign(64, 0);
    for (int i = 0; i < population; i++) {
      Spawn();
    }
  }

  void Spawn() {
    sim_.ScheduleAfter(RandomDelay(rng_), [this] { OnFire(); });
  }

  void OnFire() {
    if (cancel_mix_) {
      const auto slot = rng_.NextBelow(decoys_.size());
      if (decoys_[slot] != 0) {
        cancels_ += sim_.Cancel(decoys_[slot]) ? 1 : 0;
      }
      decoys_[slot] = sim_.ScheduleAfter(Millis(500) + RandomDelay(rng_), [] {});
    }
    Spawn();
  }

  Engine& sim_;
  Rng rng_;
  bool cancel_mix_;
  std::vector<std::uint64_t> decoys_;
  std::uint64_t cancels_ = 0;
};

struct ProfileResult {
  std::string name;
  std::string engine;
  std::uint64_t events = 0;
  double wall_s = 0;
  double events_per_s = 0;
};

template <typename Engine>
ProfileResult RunPeriodicHeavy(const char* engine_name, DurationNs sim_duration) {
  Engine sim;
  // 24 cores' worth of APIC-style ticks at 100 kHz.
  const DurationNs period = HzToPeriodNs(100'000);
  for (int core = 0; core < 24; core++) {
    StartPeriodic(sim, 1 + core, period, [] {});
  }
  // Background pending load so the reference heap is never trivially small.
  SelfRescheduler<Engine> background(sim, /*seed=*/42, /*cancel_mix=*/false);
  background.Seed(512);

  const auto start = std::chrono::steady_clock::now();
  sim.RunUntil(sim_duration);
  const auto stop = std::chrono::steady_clock::now();

  ProfileResult r;
  r.name = "periodic_heavy";
  r.engine = engine_name;
  r.events = sim.EventsExecuted();
  r.wall_s = std::chrono::duration<double>(stop - start).count();
  r.events_per_s = static_cast<double>(r.events) / r.wall_s;
  return r;
}

template <typename Engine>
ProfileResult RunRandomHorizon(const char* engine_name, DurationNs sim_duration) {
  Engine sim;
  SelfRescheduler<Engine> pool(sim, /*seed=*/7, /*cancel_mix=*/true);
  pool.Seed(2048);

  const auto start = std::chrono::steady_clock::now();
  sim.RunUntil(sim_duration);
  const auto stop = std::chrono::steady_clock::now();

  ProfileResult r;
  r.name = "random_horizon";
  r.engine = engine_name;
  r.events = sim.EventsExecuted();
  r.wall_s = std::chrono::duration<double>(stop - start).count();
  r.events_per_s = static_cast<double>(r.events) / r.wall_s;
  return r;
}

void Report(const ProfileResult& ref, const ProfileResult& wheel, BenchReporter& reporter,
            bool* ok) {
  SKYLOFT_CHECK(ref.name == wheel.name);
  if (ref.events != wheel.events) {
    std::fprintf(stderr, "FAIL: %s event counts diverge (reference=%llu wheel=%llu)\n",
                 ref.name.c_str(), static_cast<unsigned long long>(ref.events),
                 static_cast<unsigned long long>(wheel.events));
    *ok = false;
  }
  const double speedup = ref.wall_s / wheel.wall_s;
  std::printf("%-16s %12llu events | reference %8.3fs (%10.0f ev/s) | "
              "wheel %8.3fs (%10.0f ev/s) | speedup %.2fx\n",
              ref.name.c_str(), static_cast<unsigned long long>(wheel.events), ref.wall_s,
              ref.events_per_s, wheel.wall_s, wheel.events_per_s, speedup);
  reporter.AddRow()
      .Str("profile", ref.name)
      .Int("events", static_cast<std::int64_t>(wheel.events))
      .Num("reference_wall_s", ref.wall_s)
      .Num("reference_events_per_s", ref.events_per_s)
      .Num("wheel_wall_s", wheel.wall_s)
      .Num("wheel_events_per_s", wheel.events_per_s)
      .Num("speedup", speedup);
}

int Main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  // Full run: 24 timers x 100 kHz x 3 simulated seconds = 7.2M periodic fires
  // plus background load; random_horizon lands at ~2M events. Smoke keeps CI
  // in the low hundreds of milliseconds.
  const DurationNs periodic_duration = smoke ? Millis(20) : 3 * kSecond;
  const DurationNs horizon_duration = smoke ? Millis(60) : 2 * kSecond;

  bool ok = true;
  BenchReporter reporter("simcore");
  reporter.MetaBool("smoke", smoke);

  {
    auto ref = RunPeriodicHeavy<ReferenceSimulation>("reference", periodic_duration);
    auto wheel = RunPeriodicHeavy<Simulation>("wheel", periodic_duration);
    Report(ref, wheel, reporter, &ok);
    if (!smoke && ref.wall_s / wheel.wall_s < 2.0) {
      std::fprintf(stderr, "FAIL: periodic_heavy speedup below the 2x acceptance bar\n");
      ok = false;
    }
  }
  {
    auto ref = RunRandomHorizon<ReferenceSimulation>("reference", horizon_duration);
    auto wheel = RunRandomHorizon<Simulation>("wheel", horizon_duration);
    Report(ref, wheel, reporter, &ok);
  }

  if (!reporter.WriteFile()) {
    ok = false;
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace skyloft

int main(int argc, char** argv) { return skyloft::Main(argc, argv); }
