// Engine-level tests: task lifecycle, overhead charging, user-space timer
// preemption, multi-application switching (Single Binding Rule costs), the
// centralized dispatcher with quantum preemption, and the Shenango-style
// core allocator.
#include <gtest/gtest.h>

#include <memory>

#include "src/simcore/simulation.h"
#include "src/libos/central_engine.h"
#include "src/libos/percpu_engine.h"
#include "src/policies/round_robin.h"
#include "src/policies/shinjuku.h"
#include "src/policies/work_stealing.h"

namespace skyloft {
namespace {

struct SimRig {
  explicit SimRig(int num_cores) {
    MachineConfig mcfg;
    mcfg.num_cores = num_cores;
    machine = std::make_unique<Machine>(&sim, mcfg);
    chip = std::make_unique<UintrChip>(machine.get());
    kernel = std::make_unique<KernelSim>(machine.get(), chip.get());
  }
  Simulation sim;
  std::unique_ptr<Machine> machine;
  std::unique_ptr<UintrChip> chip;
  std::unique_ptr<KernelSim> kernel;
};

PerCpuEngineConfig PerCpuCfg(int cores, std::int64_t hz = 100'000,
                             TickPath path = TickPath::kUserTimer) {
  PerCpuEngineConfig cfg;
  for (int i = 0; i < cores; i++) {
    cfg.base.worker_cores.push_back(i);
  }
  cfg.base.local_switch_ns = 100;
  cfg.timer_hz = hz;
  cfg.tick_path = path;
  return cfg;
}

TEST(PerCpuEngineTest, SingleTaskRunsToCompletion) {
  SimRig rig(1);
  RoundRobinPolicy policy(Micros(50));
  PerCpuEngine engine(rig.machine.get(), rig.chip.get(), rig.kernel.get(), &policy,
                      PerCpuCfg(1));
  App* app = engine.CreateApp("a");
  engine.Start();
  Task* task = engine.NewTask(app, Micros(10));
  engine.Submit(task);
  rig.sim.RunUntil(Millis(1));
  EXPECT_EQ(engine.stats().completed, 1u);
  // Latency = switch cost + service (+ any tick overhead landing inside).
  const auto p100 = engine.stats().request_latency.Max();
  EXPECT_GE(p100, Micros(10));
  EXPECT_LT(p100, Micros(12));
}

TEST(PerCpuEngineTest, FifoOrderOnOneCore) {
  SimRig rig(1);
  RoundRobinPolicy policy(kInfiniteSlice);
  PerCpuEngine engine(rig.machine.get(), rig.chip.get(), rig.kernel.get(), &policy,
                      PerCpuCfg(1));
  App* app = engine.CreateApp("a");
  engine.Start();
  engine.Submit(engine.NewTask(app, Micros(10), /*kind=*/0));
  engine.Submit(engine.NewTask(app, Micros(10), /*kind=*/1));
  rig.sim.RunUntil(Millis(1));
  EXPECT_EQ(engine.stats().completed, 2u);
  // Second task waits for the first: latency roughly doubles.
  EXPECT_LT(engine.stats().latency_by_kind[0].Max(), Micros(12));
  EXPECT_GT(engine.stats().latency_by_kind[1].Max(), Micros(19));
}

TEST(PerCpuEngineTest, WorkConservationAcrossCores) {
  SimRig rig(4);
  WorkStealingPolicy policy(WorkStealingParams{kInfiniteSliceWs, 1});
  PerCpuEngine engine(rig.machine.get(), rig.chip.get(), rig.kernel.get(), &policy,
                      PerCpuCfg(4, 100'000, TickPath::kNone));
  App* app = engine.CreateApp("a");
  engine.Start();
  for (int i = 0; i < 4; i++) {
    engine.Submit(engine.NewTask(app, Micros(100)), /*worker_hint=*/0);
  }
  rig.sim.RunUntil(Micros(150));
  // All four must have run in parallel (idle cores pull work on submit).
  EXPECT_EQ(engine.stats().completed, 4u);
}

TEST(PerCpuEngineTest, TimerPreemptionBreaksHeadOfLine) {
  // One core, FIFO vs RR: a long task ahead of a short one. With a 50 us RR
  // slice the short task finishes ~at slice boundary; with FIFO it waits the
  // full 10 ms.
  auto run = [](DurationNs slice) {
    SimRig rig(1);
    RoundRobinPolicy policy(slice);
    PerCpuEngine engine(rig.machine.get(), rig.chip.get(), rig.kernel.get(), &policy,
                        PerCpuCfg(1));
    App* app = engine.CreateApp("a");
    engine.Start();
    engine.Submit(engine.NewTask(app, Millis(10), /*kind=*/1));
    engine.Submit(engine.NewTask(app, Micros(4), /*kind=*/0));
    rig.sim.RunUntil(Millis(50));
    return engine.stats().latency_by_kind[0].Max();
  };
  const auto rr_latency = run(Micros(50));
  const auto fifo_latency = run(kInfiniteSlice);
  EXPECT_GT(fifo_latency, Millis(9));
  EXPECT_LT(rr_latency, Micros(200));
}

TEST(PerCpuEngineTest, TickCountMatchesFrequency) {
  SimRig rig(2);
  RoundRobinPolicy policy(Micros(50));
  PerCpuEngine engine(rig.machine.get(), rig.chip.get(), rig.kernel.get(), &policy,
                      PerCpuCfg(2, 100'000));
  engine.CreateApp("a");
  engine.Start();
  rig.sim.RunUntil(Millis(10));
  // 100 kHz x 10 ms x 2 cores = 2000 ticks.
  EXPECT_EQ(engine.ticks(), 2000u);
}

TEST(PerCpuEngineTest, KernelTickPathAlsoPreempts) {
  SimRig rig(1);
  RoundRobinPolicy policy(Millis(1));
  auto cfg = PerCpuCfg(1, 1000, TickPath::kKernelTimer);
  cfg.base.local_switch_ns = 1124;
  PerCpuEngine engine(rig.machine.get(), rig.chip.get(), rig.kernel.get(), &policy, cfg);
  App* app = engine.CreateApp("a");
  engine.Start();
  engine.Submit(engine.NewTask(app, Millis(20), /*kind=*/1));
  engine.Submit(engine.NewTask(app, Micros(4), /*kind=*/0));
  rig.sim.RunUntil(Millis(100));
  EXPECT_EQ(engine.stats().completed, 2u);
  // Preemption happens at kernel-tick granularity: ~1-2 ms, not 10 us.
  const auto short_latency = engine.stats().latency_by_kind[0].Max();
  EXPECT_GT(short_latency, Micros(900));
  EXPECT_LT(short_latency, Millis(4));
}

TEST(PerCpuEngineTest, WakeupLatencyRecorded) {
  SimRig rig(1);
  RoundRobinPolicy policy(Micros(50));
  PerCpuEngine engine(rig.machine.get(), rig.chip.get(), rig.kernel.get(), &policy,
                      PerCpuCfg(1));
  App* app = engine.CreateApp("a");
  engine.Start();
  Task* task = engine.NewTask(app, Micros(5));
  task->on_segment_end = [](Task*) { return SegmentAction::kBlock; };
  engine.Submit(task);
  rig.sim.ScheduleAt(Micros(100), [&] { engine.WakeTask(task, Micros(5)); });
  rig.sim.RunUntil(Millis(1));
  EXPECT_EQ(engine.stats().wakeup_latency.Count(), 1u);
  // Idle core: wakeup latency is just the switch cost.
  EXPECT_LT(engine.stats().wakeup_latency.Max(), Micros(1));
}

TEST(PerCpuEngineTest, InterAppSwitchCostsShowUp) {
  // Two apps alternating on one core: each assignment pays the 1905 ns
  // kernel-module switch, visible in completion times.
  SimRig rig(1);
  RoundRobinPolicy policy(kInfiniteSlice);
  PerCpuEngine engine(rig.machine.get(), rig.chip.get(), rig.kernel.get(), &policy,
                      PerCpuCfg(1, 100'000, TickPath::kNone));
  App* app_a = engine.CreateApp("a");
  App* app_b = engine.CreateApp("b");
  engine.Start();
  engine.Submit(engine.NewTask(app_a, Micros(10), 0));
  engine.Submit(engine.NewTask(app_b, Micros(10), 1));
  engine.Submit(engine.NewTask(app_a, Micros(10), 2));
  rig.sim.RunUntil(Millis(1));
  EXPECT_EQ(engine.stats().completed, 3u);
  // Task 3 saw two app switches (a->b, b->a) on top of ~30 us of service.
  const auto total = engine.stats().latency_by_kind[2].Max();
  const auto switch_cost = rig.machine->costs().skyloft_app_switch_ns;
  EXPECT_GE(total, Micros(30) + 2 * switch_cost);
  rig.kernel->CheckBindingRule();
}

TEST(PerCpuEngineTest, CpuShareAccounting) {
  SimRig rig(2);
  RoundRobinPolicy policy(Micros(50));
  PerCpuEngine engine(rig.machine.get(), rig.chip.get(), rig.kernel.get(), &policy,
                      PerCpuCfg(2));
  App* app = engine.CreateApp("a");
  engine.Start();
  engine.ResetStats();
  // One core fully busy for ~1 ms, the other idle: share ~= 0.5.
  engine.Submit(engine.NewTask(app, Millis(1)), 0);
  rig.sim.RunUntil(Millis(1));
  const double share = engine.CpuShare(app);
  EXPECT_NEAR(share, 0.5, 0.05);
}

TEST(PerCpuEngineTest, DeterministicAcrossRuns) {
  auto run = [] {
    SimRig rig(4);
    WorkStealingPolicy policy(WorkStealingParams{Micros(5), 7});
    PerCpuEngine engine(rig.machine.get(), rig.chip.get(), rig.kernel.get(), &policy,
                        PerCpuCfg(4, 200'000));
    App* app = engine.CreateApp("a");
    engine.Start();
    Rng rng(99);
    for (int i = 0; i < 500; i++) {
      rig.sim.ScheduleAt(static_cast<TimeNs>(rng.NextBelow(Millis(5))), [&engine, app, &rng, i] {
        engine.Submit(engine.NewTask(app, 500 + static_cast<DurationNs>(i) * 13, i % 2));
      });
    }
    rig.sim.RunUntil(Millis(20));
    return std::make_tuple(engine.stats().completed, engine.stats().request_latency.Max(),
                           engine.stats().request_latency.Percentile(0.5),
                           rig.sim.EventsExecuted());
  };
  EXPECT_EQ(run(), run());
}

// ---- Centralized engine ----

CentralizedEngineConfig CentralCfg(int workers, DurationNs quantum) {
  CentralizedEngineConfig cfg;
  for (int i = 0; i < workers; i++) {
    cfg.base.worker_cores.push_back(i);
  }
  cfg.quantum = quantum;
  cfg.base.local_switch_ns = 100;
  return cfg;
}

TEST(CentralizedEngineTest, DispatchesToIdleWorkers) {
  SimRig rig(3);
  ShinjukuPolicy policy;
  CentralizedEngine engine(rig.machine.get(), rig.chip.get(), rig.kernel.get(), &policy,
                           CentralCfg(2, Micros(30)));
  App* app = engine.CreateApp("lc");
  engine.Start();
  engine.Submit(engine.NewTask(app, Micros(50)));
  engine.Submit(engine.NewTask(app, Micros(50)));
  rig.sim.RunUntil(Micros(80));
  EXPECT_EQ(engine.stats().completed, 2u) << "both workers must run in parallel";
}

TEST(CentralizedEngineTest, QuantumPreemptionApproximatesProcessorSharing) {
  // 1 worker; a 10 ms hog arrives, then a 4 us request. With a 30 us quantum
  // the short request completes in ~tens of us; without preemption it waits
  // 10 ms.
  auto run = [&](DurationNs quantum,
                 CentralizedEngineConfig::Mech mech) -> std::int64_t {
    SimRig rig(2);
    ShinjukuPolicy policy;
    auto cfg = CentralCfg(1, quantum);
    cfg.mech = mech;
    CentralizedEngine engine(rig.machine.get(), rig.chip.get(), rig.kernel.get(), &policy, cfg);
    App* app = engine.CreateApp("lc");
    engine.Start();
    engine.Submit(engine.NewTask(app, Millis(10), 1));
    rig.sim.ScheduleAt(Micros(10), [&] { engine.Submit(engine.NewTask(app, Micros(4), 0)); });
    rig.sim.RunUntil(Millis(50));
    return engine.stats().latency_by_kind[0].Max();
  };
  const auto preemptive = run(Micros(30), CentralizedEngineConfig::Mech::kUserIpi);
  const auto fifo = run(0, CentralizedEngineConfig::Mech::kNone);
  EXPECT_LT(preemptive, Micros(100));
  EXPECT_GT(fifo, Millis(9));
}

TEST(CentralizedEngineTest, PreemptsAreCounted) {
  SimRig rig(2);
  ShinjukuPolicy policy;
  CentralizedEngine engine(rig.machine.get(), rig.chip.get(), rig.kernel.get(), &policy,
                           CentralCfg(1, Micros(30)));
  App* app = engine.CreateApp("lc");
  engine.Start();
  engine.Submit(engine.NewTask(app, Millis(1), 1));
  engine.Submit(engine.NewTask(app, Millis(1), 1));
  rig.sim.RunUntil(Millis(5));
  EXPECT_GT(engine.preempts_sent(), 10u);  // 2 ms of work / 30 us quanta, ~2x
}

TEST(CentralizedEngineTest, NoPreemptionWhenQueueEmpty) {
  SimRig rig(2);
  ShinjukuPolicy policy;
  CentralizedEngine engine(rig.machine.get(), rig.chip.get(), rig.kernel.get(), &policy,
                           CentralCfg(1, Micros(30)));
  App* app = engine.CreateApp("lc");
  engine.Start();
  engine.Submit(engine.NewTask(app, Millis(1), 1));
  rig.sim.RunUntil(Millis(5));
  EXPECT_EQ(engine.preempts_sent(), 0u) << "run-to-completion when nothing waits";
  EXPECT_EQ(engine.stats().completed, 1u);
}

TEST(CentralizedEngineTest, BestEffortGetsIdleCores) {
  SimRig rig(3);
  ShinjukuPolicy policy;
  auto cfg = CentralCfg(2, Micros(30));
  cfg.core_alloc = true;
  CentralizedEngine engine(rig.machine.get(), rig.chip.get(), rig.kernel.get(), &policy, cfg);
  engine.CreateApp("lc");
  App* be = engine.CreateApp("batch", /*best_effort=*/true);
  engine.AttachBestEffortApp(be);
  engine.Start();
  engine.ResetStats();
  rig.sim.RunUntil(Millis(10));
  // LC idle: the allocator grants all but one worker to the batch app.
  EXPECT_EQ(engine.BestEffortWorkers(), 1);
  EXPECT_GT(engine.CpuShare(be), 0.4);
}

TEST(CentralizedEngineTest, BestEffortNeverRunsWithoutCoreAlloc) {
  // Shinjuku's dedicated-core model: zero CPU share for the batch app
  // (Fig. 7c's flat-zero line).
  SimRig rig(3);
  ShinjukuPolicy policy;
  auto cfg = CentralCfg(2, Micros(30));
  cfg.core_alloc = false;
  CentralizedEngine engine(rig.machine.get(), rig.chip.get(), rig.kernel.get(), &policy, cfg);
  engine.CreateApp("lc");
  App* be = engine.CreateApp("batch", true);
  engine.AttachBestEffortApp(be);
  engine.Start();
  rig.sim.RunUntil(Millis(10));
  EXPECT_EQ(engine.BestEffortWorkers(), 0);
  EXPECT_DOUBLE_EQ(engine.CpuShare(be), 0.0);
}

TEST(CentralizedEngineTest, CongestionReclaimsBestEffortCores) {
  SimRig rig(3);
  ShinjukuPolicy policy;
  auto cfg = CentralCfg(2, Micros(30));
  cfg.core_alloc = true;
  CentralizedEngine engine(rig.machine.get(), rig.chip.get(), rig.kernel.get(), &policy, cfg);
  App* lc = engine.CreateApp("lc");
  App* be = engine.CreateApp("batch", true);
  engine.AttachBestEffortApp(be);
  engine.Start();
  rig.sim.RunUntil(Millis(5));  // batch takes the idle core
  ASSERT_EQ(engine.BestEffortWorkers(), 1);
  // Burst of LC work: the allocator must take the core back quickly.
  rig.sim.ScheduleAfter(0, [&] {
    for (int i = 0; i < 8; i++) {
      engine.Submit(engine.NewTask(lc, Micros(200)));
    }
  });
  rig.sim.RunUntil(Millis(5) + Micros(50));
  EXPECT_EQ(engine.BestEffortWorkers(), 0) << "congestion must reclaim the BE core";
  rig.sim.RunUntil(Millis(10));
  EXPECT_EQ(engine.stats().completed, 8u);
  rig.kernel->CheckBindingRule();
}

}  // namespace
}  // namespace skyloft
