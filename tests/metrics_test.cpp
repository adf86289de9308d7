// Tests for the unified metrics layer (src/base/metrics.h) and its adoption
// by the sim engines, the uintr chip, the kernel sim, and the host runtime.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/simcore/simulation.h"
#include "src/base/metrics.h"
#include "src/base/random.h"
#include "src/libos/engine_stats.h"
#include "src/libos/percpu_engine.h"
#include "src/policies/round_robin.h"
#include "src/runtime/uthread.h"

namespace skyloft {
namespace {

TEST(CounterTest, IncAndReset) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Inc();
  c.Inc(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(CounterTest, ConcurrentIncrementsAreExact) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; i++) {
        c.Inc();
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(c.Value(), static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(GaugeTest, LastWriteWins) {
  Gauge g;
  g.Set(7);
  g.Set(-3);
  EXPECT_EQ(g.Value(), -3);
}

TEST(ShardedCounterTest, AggregatesAcrossLanes) {
  ShardedCounter c(4);
  EXPECT_EQ(c.shards(), 4);
  c.Inc(0);
  c.Inc(1, 5);
  c.Inc(3);
  // Out-of-range shard indices wrap instead of indexing out of bounds.
  c.Inc(7, 2);
  EXPECT_EQ(c.Value(), 9u);
}

TEST(ShardedCounterTest, ConcurrentPerShardIncrementsAreExact) {
  constexpr int kShards = 4;
  constexpr int kPerShard = 50000;
  ShardedCounter c(kShards);
  std::vector<std::thread> threads;
  for (int s = 0; s < kShards; s++) {
    threads.emplace_back([&c, s] {
      for (int i = 0; i < kPerShard; i++) {
        c.Inc(s);
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(c.Value(), static_cast<std::uint64_t>(kShards) * kPerShard);
}

TEST(MetricGroupTest, SampleQualifiesNames) {
  MetricGroup group("grp");
  group.AddCounter("hits")->Inc(3);
  group.AddGauge("depth")->Set(-2);
  group.AddSharded("spread", 2)->Inc(1, 4);
  group.LinkValue("answer", [] { return std::int64_t{42}; });
  std::vector<MetricSample> samples;
  group.Sample(&samples);
  ASSERT_EQ(samples.size(), 4u);
  EXPECT_EQ(samples[0].name, "grp.hits");
  EXPECT_EQ(samples[0].kind, MetricSample::Kind::kCounter);
  EXPECT_EQ(samples[0].value, 3);
  EXPECT_EQ(samples[1].name, "grp.depth");
  EXPECT_EQ(samples[1].value, -2);
  EXPECT_EQ(samples[2].name, "grp.spread");
  EXPECT_EQ(samples[2].value, 4);
  EXPECT_EQ(samples[3].name, "grp.answer");
  EXPECT_EQ(samples[3].value, 42);
}

TEST(MetricGroupTest, LinkedHistogramSummarizes) {
  LatencyHistogram h;
  h.Record(1000);
  h.Record(5000);
  MetricGroup group("grp");
  group.LinkHistogram("lat", &h);
  std::vector<MetricSample> samples;
  group.Sample(&samples);
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].kind, MetricSample::Kind::kHistogram);
  EXPECT_EQ(samples[0].count, 2u);
  EXPECT_EQ(samples[0].min, 1000);
  EXPECT_EQ(samples[0].max, 5000);
  EXPECT_GE(samples[0].p99, samples[0].p50);
  EXPECT_DOUBLE_EQ(samples[0].mean, 3000.0);
}

TEST(RegistryTest, GroupsRegisterForTheirLifetime) {
  const int before = MetricsRegistry::Global().group_count();
  {
    MetricGroup group("ephemeral");
    EXPECT_EQ(MetricsRegistry::Global().group_count(), before + 1);
  }
  EXPECT_EQ(MetricsRegistry::Global().group_count(), before);
}

TEST(RegistryTest, ToJsonRendersQualifiedNames) {
  MetricGroup group("jsontest");
  group.AddCounter("things")->Inc(2);
  LatencyHistogram h;
  h.Record(100);
  group.LinkHistogram("lat", &h);
  const std::string json = MetricsRegistry::Global().ToJson();
  EXPECT_NE(json.find("\"jsontest.things\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"jsontest.lat\":{\"count\":1"), std::string::npos) << json;
}

// ---- Substrate adoption ----

struct Rig {
  Rig() {
    MachineConfig mcfg;
    mcfg.num_cores = 1;
    machine = std::make_unique<Machine>(&sim, mcfg);
    chip = std::make_unique<UintrChip>(machine.get());
    kernel = std::make_unique<KernelSim>(machine.get(), chip.get());
  }
  Simulation sim;
  std::unique_ptr<Machine> machine;
  std::unique_ptr<UintrChip> chip;
  std::unique_ptr<KernelSim> kernel;
};

TEST(MetricsAdoptionTest, EngineStatsAppearInRegistry) {
  Rig rig;
  RoundRobinPolicy policy(Micros(50));
  PerCpuEngineConfig cfg;
  cfg.base.worker_cores = {0};
  cfg.timer_hz = 100'000;
  cfg.tick_path = TickPath::kUserTimer;
  PerCpuEngine engine(rig.machine.get(), rig.chip.get(), rig.kernel.get(), &policy, cfg);
  App* app = engine.CreateApp("a");
  engine.Start();
  engine.Submit(engine.NewTask(app, Micros(100)));
  rig.sim.RunUntil(Millis(5));
  ASSERT_EQ(engine.stats().completed, 1u);

  bool found = false;
  for (const MetricSample& s : MetricsRegistry::Global().Snapshot()) {
    if (s.name == "engine.completed" && s.value == 1) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << "engine stats must be registered in the global registry";
}

TEST(MetricsAdoptionTest, ChipAndKernelCountInterruptVolume) {
  Rig rig;
  RoundRobinPolicy policy(Micros(50));
  PerCpuEngineConfig cfg;
  cfg.base.worker_cores = {0};
  cfg.timer_hz = 100'000;
  cfg.tick_path = TickPath::kUserTimer;
  PerCpuEngine engine(rig.machine.get(), rig.chip.get(), rig.kernel.get(), &policy, cfg);
  App* app = engine.CreateApp("a");
  engine.Start();
  engine.Submit(engine.NewTask(app, Millis(2)));
  rig.sim.RunUntil(Millis(5));

  // The user-timer tick path must show up as measured interrupt volume: the
  // kernel programmed the timer, and the chip delivered timer user IRQs.
  EXPECT_GT(rig.kernel->counters().timer_programs.Value(), 0u);
  EXPECT_GT(rig.chip->counters().user_timer_irqs.Value(), 0u);
  EXPECT_GT(rig.chip->counters().user_irqs_delivered.Value(), 0u);
}

// Regression (out-of-range task kind): NewTask must clamp the kind into
// [0, kMaxKinds); pre-fix, a kind >= kMaxKinds indexed past the end of the
// per-kind histogram arrays when the segment finished.
TEST(MetricsAdoptionTest, OutOfRangeTaskKindIsClamped) {
  Rig rig;
  RoundRobinPolicy policy(kInfiniteSlice);
  PerCpuEngineConfig cfg;
  cfg.base.worker_cores = {0};
  cfg.tick_path = TickPath::kNone;
  PerCpuEngine engine(rig.machine.get(), rig.chip.get(), rig.kernel.get(), &policy, cfg);
  App* app = engine.CreateApp("a");
  engine.Start();
  Task* task = engine.NewTask(app, Micros(100), /*kind=*/99);
  EXPECT_EQ(task->kind, EngineStats::kMaxKinds - 1);
  engine.Submit(task);
  rig.sim.RunUntil(Millis(5));
  EXPECT_EQ(engine.stats().completed, 1u);
  EXPECT_EQ(engine.stats().latency_by_kind[EngineStats::kMaxKinds - 1].Count(), 1u);
}

TEST(MetricsAdoptionTest, RuntimeCountersAreRegistered) {
  RuntimeOptions opts{.workers = 2, .preempt_period_us = 0};
  Runtime rt(opts);
  std::atomic<int> ran{0};
  rt.Run([&] {
    std::vector<UThread*> children;
    for (int i = 0; i < 4; i++) {
      children.push_back(Runtime::Spawn([&] { ran.fetch_add(1); }));
    }
    for (UThread* c : children) {
      Runtime::Join(c);
    }
  });
  EXPECT_EQ(ran.load(), 4);
  // Run()'s main-fn submission comes from off-runtime: counted as external.
  EXPECT_GT(rt.external_placements(), 0u);
  bool found_preemptions = false;
  bool found_steals = false;
  for (const MetricSample& s : MetricsRegistry::Global().Snapshot()) {
    if (s.name == "runtime.preemptions") {
      found_preemptions = true;
    }
    if (s.name == "host_sched.steals") {
      found_steals = true;
    }
  }
  EXPECT_TRUE(found_preemptions);
  EXPECT_TRUE(found_steals);
}

// ---- Interval snapshots (LatencyHistogram::DeltaSince, ISSUE 9) ----
//
// The quantum controller polls faster than samples arrive at low load, so
// empty windows and Reset()s mid-flight must produce defined results, and a
// non-empty window must look like a fresh histogram of just the new samples.

TEST(IntervalSnapshotTest, EmptyHistogramAndEmptyWindowAreDefined) {
  LatencyHistogram h;
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Percentile(0.5), LatencyHistogram::kEmptySentinel);
  EXPECT_EQ(h.Percentile(0.999), LatencyHistogram::kEmptySentinel);
  EXPECT_EQ(h.Min(), 0);
  EXPECT_EQ(h.Max(), 0);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);

  h.Record(42);
  // Baseline == current: a window with no new samples, even though the
  // cumulative histogram is non-empty.
  const LatencyHistogram window = h.DeltaSince(h);
  EXPECT_EQ(window.Count(), 0u);
  EXPECT_EQ(window.Percentile(0.99), LatencyHistogram::kEmptySentinel);
  EXPECT_EQ(window.Min(), 0);
  EXPECT_EQ(window.Max(), 0);
  EXPECT_DOUBLE_EQ(window.Mean(), 0.0);
}

TEST(IntervalSnapshotTest, WindowMatchesFreshHistogramOfNewSamples) {
  Rng rng(2026);
  for (int trial = 0; trial < 20; trial++) {
    LatencyHistogram h;
    const int pre = static_cast<int>(rng.NextBelow(2000));
    for (int i = 0; i < pre; i++) {
      h.Record(static_cast<std::int64_t>(1 + rng.NextBelow(10'000'000)));
    }
    const LatencyHistogram baseline = h;
    LatencyHistogram reference;
    const int fresh = static_cast<int>(1 + rng.NextBelow(3000));
    for (int i = 0; i < fresh; i++) {
      const auto v = static_cast<std::int64_t>(1 + rng.NextBelow(10'000'000));
      h.Record(v);
      reference.Record(v);
    }
    const LatencyHistogram window = h.DeltaSince(baseline);
    ASSERT_EQ(window.Count(), reference.Count()) << "trial " << trial;
    // Bucket counts in the delta are exact, so bucket-bound percentiles
    // agree with a fresh histogram except at the edges, where the window's
    // min/max are reconstructed from bucket bounds (within one bucket,
    // <= 1/64 relative) rather than tracked exactly.
    for (const double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
      const double a = static_cast<double>(window.Percentile(q));
      const double b = static_cast<double>(reference.Percentile(q));
      EXPECT_NEAR(a, b, 0.03 * b + 1.0) << "trial " << trial << " q=" << q;
    }
  }
}

TEST(IntervalSnapshotTest, ResetBetweenSnapshotsSaturatesToShortWindow) {
  LatencyHistogram h;
  for (int i = 0; i < 1000; i++) {
    h.Record(1000 + i);
  }
  const LatencyHistogram baseline = h;
  h.Reset();
  for (int i = 0; i < 5; i++) {
    h.Record(500);
  }
  // Bucket-wise saturating subtraction: the window can undercount (new
  // samples landing in buckets the baseline already occupied vanish) but
  // must never underflow into a huge bogus count or a negative value.
  const LatencyHistogram window = h.DeltaSince(baseline);
  EXPECT_LE(window.Count(), 5u);
  EXPECT_GE(window.Min(), 0);
  EXPECT_GE(window.Max(), window.Min());
  // Reconstructed from bucket bounds (a Reset intervened, so the exact
  // cumulative extremes cannot tighten it): within 1/64 above the true max.
  EXPECT_LE(window.Percentile(0.99), h.Max() + h.Max() / 64 + 1);
}

}  // namespace
}  // namespace skyloft
