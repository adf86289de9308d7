// Tests for the adaptive preemption-quantum controller (DESIGN.md section
// 13): the pure control law (parking at clamps, move-reversal on worsened
// windows, the protected-empty relax signal) and the controller glue
// (interval windowing via LatencyHistogram::DeltaSince, Reset absorption,
// protected-kind steering, EWMA smoothing, hook application, trace events).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/base/histogram.h"
#include "src/base/trace.h"
#include "src/runtime/quantum_controller.h"

namespace skyloft {
namespace {

QuantumControllerConfig TestConfig() {
  QuantumControllerConfig config;
  config.slo_slowdown_x100 = 1000;  // 10x
  config.tighten_at = 0.8;          // congested at p99 >= 800
  config.relax_below = 0.5;         // comfortable at p99 < 500
  config.quantum_min = Micros(2);
  config.quantum_max = Micros(200);
  config.quantum_initial = Micros(16);
  config.tighten_div = 2.0;
  config.relax_mul = 1.5;
  config.flip_worsen_frac = 0.5;
  config.min_window_samples = 32;
  config.signal_ewma = 1.0;  // law tests want raw windows
  config.tick_budget_per_core_hz = 150e3;
  return config;
}

QuantumWindowSignals Window(std::int64_t p99, std::uint64_t samples = 1000,
                            double ticks_hz = 1e3) {
  QuantumWindowSignals s;
  s.p99_slowdown_x100 = p99;
  s.samples = samples;
  s.total_samples = samples;
  s.ticks_per_core_per_sec = ticks_hz;
  return s;
}

// ---- Control law ----

TEST(QuantumControlLawTest, HoldsBelowMinWindowSamples) {
  QuantumControlLaw law(TestConfig());
  QuantumWindowSignals s = Window(/*p99=*/5000, /*samples=*/10);
  s.total_samples = 10;  // fewer completions than min_window_samples
  EXPECT_EQ(law.Step(Micros(16), s), Micros(16));
}

TEST(QuantumControlLawTest, CongestionTightensToFloorAndParks) {
  QuantumControlLaw law(TestConfig());
  DurationNs q = Micros(16);
  // Steady unattainable congestion: 16 -> 8 -> 4 -> 2, then park.
  for (const DurationNs expected : {Micros(8), Micros(4), Micros(2)}) {
    q = law.Step(q, Window(5000));
    EXPECT_EQ(q, expected);
  }
  for (int i = 0; i < 5; i++) {
    q = law.Step(q, Window(5000));
    EXPECT_EQ(q, Micros(2)) << "bounced off the floor on step " << i;
  }
}

TEST(QuantumControlLawTest, FloorParkIsUnconditional) {
  QuantumControlLaw law(TestConfig());
  DurationNs q = Micros(4);
  q = law.Step(q, Window(2000));  // tighten 4 -> 2
  ASSERT_EQ(q, Micros(2));
  // Windowed p99 doubling at the floor is indistinguishable from tail noise;
  // probing up in a head-of-line regime is the expensive mistake, so the law
  // must stay parked however bad consecutive windows look.
  std::int64_t p99 = 2000;
  for (int i = 0; i < 6; i++) {
    p99 *= 2;
    q = law.Step(q, Window(p99));
    EXPECT_EQ(q, Micros(2)) << "left the floor on step " << i;
  }
}

TEST(QuantumControlLawTest, ProtectedEmptyWindowRelaxesTowardCeiling) {
  QuantumControlLaw law(TestConfig());
  QuantumWindowSignals s;
  s.p99_slowdown_x100 = -1;  // no protected tail this window
  s.samples = 0;             // ...but plenty of traffic flowed
  s.total_samples = 1000;
  DurationNs q = Micros(16);
  DurationNs prev = q;
  for (int i = 0; i < 32; i++) {
    q = law.Step(q, s);
    EXPECT_GE(q, prev) << "protected-empty window tightened on step " << i;
    prev = q;
  }
  EXPECT_EQ(q, TestConfig().quantum_max);
}

TEST(QuantumControlLawTest, ComfortableRelaxesOnlyAboveTickBudget) {
  QuantumControlLaw law(TestConfig());
  // Comfortable tail, tick volume within budget: hold.
  EXPECT_EQ(law.Step(Micros(16), Window(100, 1000, /*ticks_hz=*/50e3)), Micros(16));
  // Comfortable tail, tick volume above budget: shed overhead.
  EXPECT_EQ(law.Step(Micros(16), Window(100, 1000, /*ticks_hz=*/200e3)), Micros(24));
}

// Regression: the worsened-window reversal must key off the *last move*, not
// the direction variable. The comfortable branch resets direction_ to
// kTighten after relaxing; a toggle of direction_ then points kRelax — the
// same way as the harmful move — and the law runs away toward the ceiling
// instead of undoing the probe.
TEST(QuantumControlLawTest, WorsenedWindowReversesLastMove) {
  QuantumControlLaw law(TestConfig());
  // Park at the floor under congestion.
  DurationNs q = Micros(2);
  q = law.Step(q, Window(900));
  ASSERT_EQ(q, Micros(2));
  // A comfortable, tick-heavy window relaxes 2 -> 3.
  q = law.Step(q, Window(400, 1000, /*ticks_hz=*/200e3));
  ASSERT_EQ(q, Micros(3));
  // The relax made the tail materially worse (1500 > 400 * 1.5): the next
  // congested step must move BACK down, not relax again.
  q = law.Step(q, Window(1500));
  EXPECT_LT(q, Micros(3));
  EXPECT_EQ(q, Micros(2));
}

TEST(QuantumControlLawTest, CeilingReprobesDownOnMaterialWorsening) {
  QuantumControllerConfig config = TestConfig();
  QuantumControlLaw law(config);
  // Reach the ceiling via the protected-empty relax path.
  QuantumWindowSignals empty;
  empty.p99_slowdown_x100 = -1;
  empty.samples = 0;
  empty.total_samples = 1000;
  DurationNs q = Micros(16);
  for (int i = 0; i < 32; i++) {
    q = law.Step(q, empty);
  }
  ASSERT_EQ(q, config.quantum_max);
  // Congestion appears (a regime shift toward head-of-line blocking): the
  // first congested window carries no move memory, so the probe heads down.
  q = law.Step(q, Window(5000));
  EXPECT_LT(q, config.quantum_max);
}

// ---- Controller glue ----

struct Recorded {
  std::vector<DurationNs> quanta;
  std::vector<DurationNs> periods;
};

QuantumController::Hooks RecordingHooks(Recorded* rec) {
  QuantumController::Hooks hooks;
  hooks.apply_quantum = [rec](DurationNs q) { rec->quanta.push_back(q); };
  hooks.apply_timer_period = [rec](DurationNs p) { rec->periods.push_back(p); };
  return hooks;
}

void RecordMany(LatencyHistogram* h, std::int64_t value, int n) {
  for (int i = 0; i < n; i++) {
    h->Record(value);
  }
}

TEST(QuantumControllerTest, ApplyInitialFiresHooksAndTraceCounter) {
  QuantumControllerConfig config = TestConfig();
  config.timer_period_frac = 1.0;
  config.timer_period_min = Micros(2);
  config.timer_period_max = Micros(10);  // below quantum_initial: must clamp
  Recorded rec;
  QuantumController ctl(config, RecordingHooks(&rec));
  SchedTracer tracer(64);
  ctl.SetTracer(&tracer);
  ctl.ApplyInitial(0);
  ASSERT_EQ(rec.quanta.size(), 1u);
  EXPECT_EQ(rec.quanta[0], config.quantum_initial);
  ASSERT_EQ(rec.periods.size(), 1u);
  EXPECT_EQ(rec.periods[0], Micros(10));  // clamped to timer_period_max
  EXPECT_EQ(tracer.CountOf(TraceEventType::kQuantumSet), 1u);
  ASSERT_EQ(ctl.history().size(), 1u);
  EXPECT_EQ(ctl.history()[0].quantum_ns, config.quantum_initial);
}

TEST(QuantumControllerTest, PollSeesOnlyTheWindowSinceLastPoll) {
  Recorded rec;
  QuantumController ctl(TestConfig(), RecordingHooks(&rec));
  LatencyHistogram h;
  ctl.WatchSlowdown(&h);
  ctl.Poll(Millis(1));  // primes baselines only
  RecordMany(&h, 5000, 1000);
  ctl.Poll(Millis(2));  // congested window: tighten
  ASSERT_EQ(ctl.adjustments(), 1u);
  EXPECT_LT(ctl.quantum(), TestConfig().quantum_initial);
  // No new samples: the window is empty even though the cumulative histogram
  // still holds 1000 congested samples — the controller must hold.
  const DurationNs before = ctl.quantum();
  ctl.Poll(Millis(3));
  EXPECT_EQ(ctl.quantum(), before);
  EXPECT_EQ(ctl.adjustments(), 1u);
}

TEST(QuantumControllerTest, ResetBetweenPollsIsAbsorbed) {
  Recorded rec;
  QuantumController ctl(TestConfig(), RecordingHooks(&rec));
  LatencyHistogram h;
  ctl.WatchSlowdown(&h);
  ctl.Poll(Millis(1));
  RecordMany(&h, 5000, 1000);
  ctl.Poll(Millis(2));
  const DurationNs before = ctl.quantum();
  h.Reset();  // warmup-discard style reset mid-flight
  RecordMany(&h, 5000, 5);
  // The saturating delta yields a short (<= 5 sample) window, which is below
  // min_window_samples: hold, no underflow, no garbage percentile.
  ctl.Poll(Millis(3));
  EXPECT_EQ(ctl.quantum(), before);
}

TEST(QuantumControllerTest, ProtectedTailSteersOverOverall) {
  Recorded rec;
  QuantumController ctl(TestConfig(), RecordingHooks(&rec));
  LatencyHistogram overall;
  LatencyHistogram prot;
  ctl.WatchSlowdown(&overall);
  ctl.WatchProtected(&prot);
  std::uint64_t ticks = 0;
  ctl.WatchTicks([&ticks] { return ticks; }, /*cores=*/1);
  ctl.Poll(Millis(1));
  // Overall tail is terrible (long requests), protected tail is comfortable,
  // tick volume is above budget: the controller must steer by the protected
  // tail and relax, not tighten on the overall one.
  RecordMany(&overall, 20000, 1000);
  RecordMany(&prot, 100, 200);
  ticks += 1'000'000;  // 1M ticks in 1ms >> budget
  ctl.Poll(Millis(2));
  EXPECT_GT(ctl.quantum(), TestConfig().quantum_initial);
}

TEST(QuantumControllerTest, ProtectedEmptyWindowWithTrafficRelaxes) {
  Recorded rec;
  QuantumController ctl(TestConfig(), RecordingHooks(&rec));
  LatencyHistogram overall;
  LatencyHistogram prot;
  ctl.WatchSlowdown(&overall);
  ctl.WatchProtected(&prot);
  ctl.Poll(Millis(1));
  RecordMany(&overall, 900, 1000);  // traffic flowed, all of it unprotected
  ctl.Poll(Millis(2));
  EXPECT_GT(ctl.quantum(), TestConfig().quantum_initial);
}

TEST(QuantumControllerTest, EwmaDampsOneWindowSpike) {
  QuantumControllerConfig config = TestConfig();
  config.signal_ewma = 0.1;
  Recorded rec;
  QuantumController ctl(config, RecordingHooks(&rec));
  LatencyHistogram h;
  ctl.WatchSlowdown(&h);
  ctl.Poll(Millis(1));
  RecordMany(&h, 100, 1000);  // seeds the EWMA comfortable (1x)
  ctl.Poll(Millis(2));
  const DurationNs before = ctl.quantum();
  // One noisy window at 20x: smoothed = 0.1 * 2000 + 0.9 * 100 = 290 < 800,
  // so the spike must NOT tighten the quantum (unsmoothed it would).
  RecordMany(&h, 2000, 1000);
  ctl.Poll(Millis(3));
  EXPECT_EQ(ctl.quantum(), before);
}

TEST(QuantumControllerTest, QuantumChangesAppendHistoryAndTraceEvents) {
  Recorded rec;
  QuantumController ctl(TestConfig(), RecordingHooks(&rec));
  SchedTracer tracer(64);
  ctl.SetTracer(&tracer);
  LatencyHistogram h;
  ctl.WatchSlowdown(&h);
  ctl.ApplyInitial(0);
  ctl.Poll(Millis(1));
  RecordMany(&h, 5000, 1000);
  ctl.Poll(Millis(2));
  RecordMany(&h, 5000, 1000);
  ctl.Poll(Millis(3));
  EXPECT_GE(ctl.adjustments(), 2u);
  // history = initial apply + one point per adjustment; each emitted a
  // kQuantumSet counter event carrying the quantum in task_id.
  EXPECT_EQ(ctl.history().size(), 1 + ctl.adjustments());
  EXPECT_EQ(tracer.CountOf(TraceEventType::kQuantumSet), 1 + ctl.adjustments());
}

}  // namespace
}  // namespace skyloft
