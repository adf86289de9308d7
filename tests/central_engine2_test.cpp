// Second wave of centralized-engine tests: the modelled preemption
// mechanism, dispatcher serialization as a throughput bottleneck, quantum
// re-arm behaviour, spurious-IPI tolerance, and allocator edge cases.
#include <gtest/gtest.h>

#include <memory>

#include "src/simcore/simulation.h"
#include "src/libos/central_engine.h"
#include "src/policies/shinjuku.h"

namespace skyloft {
namespace {

struct Rig {
  explicit Rig(int cores) {
    MachineConfig mcfg;
    mcfg.num_cores = cores;
    machine = std::make_unique<Machine>(&sim, mcfg);
    chip = std::make_unique<UintrChip>(machine.get());
    kernel = std::make_unique<KernelSim>(machine.get(), chip.get());
  }
  Simulation sim;
  std::unique_ptr<Machine> machine;
  std::unique_ptr<UintrChip> chip;
  std::unique_ptr<KernelSim> kernel;
};

CentralizedEngineConfig BaseCfg(int workers, DurationNs quantum) {
  CentralizedEngineConfig cfg;
  for (int i = 0; i < workers; i++) {
    cfg.base.worker_cores.push_back(i);
  }
  cfg.quantum = quantum;
  cfg.base.local_switch_ns = 100;
  return cfg;
}

TEST(CentralizedModelledTest, ModelledMechanismPreempts) {
  Rig rig(2);
  ShinjukuPolicy policy;
  auto cfg = BaseCfg(1, Micros(30));
  cfg.mech = CentralizedEngineConfig::Mech::kModelled;
  cfg.preempt_delivery_ns = 2000;
  cfg.preempt_receive_ns = 1500;
  CentralizedEngine engine(rig.machine.get(), rig.chip.get(), rig.kernel.get(), &policy, cfg);
  App* app = engine.CreateApp("lc");
  engine.Start();
  engine.Submit(engine.NewTask(app, Millis(5), 1));
  rig.sim.ScheduleAt(Micros(10), [&] { engine.Submit(engine.NewTask(app, Micros(4), 0)); });
  rig.sim.RunUntil(Millis(20));
  EXPECT_EQ(engine.stats().completed, 2u);
  // Short request must escape via modelled preemption: quantum + delivery +
  // receive + switch, well under 100 us.
  EXPECT_LT(engine.stats().latency_by_kind[0].Max(), Micros(100));
  EXPECT_GT(engine.preempts_sent(), 0u);
}

TEST(CentralizedModelledTest, HeavierMechanismRaisesShortTail) {
  auto run = [](DurationNs delivery, DurationNs receive) {
    Rig rig(2);
    ShinjukuPolicy policy;
    auto cfg = BaseCfg(1, Micros(30));
    cfg.mech = CentralizedEngineConfig::Mech::kModelled;
    cfg.preempt_delivery_ns = delivery;
    cfg.preempt_receive_ns = receive;
    CentralizedEngine engine(rig.machine.get(), rig.chip.get(), rig.kernel.get(), &policy,
                             cfg);
    App* app = engine.CreateApp("lc");
    engine.Start();
    // Steady stream: long tasks keep the core busy; measure short tails.
    for (int i = 0; i < 20; i++) {
      rig.sim.ScheduleAt(static_cast<TimeNs>(i) * Micros(200), [&engine, app] {
        engine.Submit(engine.NewTask(app, Micros(150), 1));
        engine.Submit(engine.NewTask(app, Micros(4), 0));
      });
    }
    rig.sim.RunUntil(Millis(50));
    return engine.stats().latency_by_kind[0].Max();
  };
  const auto light = run(600, 350);    // ~user IPI
  const auto heavy = run(2700, 3200);  // ~signal
  EXPECT_LT(light, heavy);
}

TEST(CentralizedDispatcherTest, SerializationCapsThroughput) {
  // 8 workers, 1 us tasks, but a 2 us dispatcher occupancy: the dispatcher,
  // not the workers, bounds throughput at ~500 kRPS.
  Rig rig(9);
  ShinjukuPolicy policy;
  auto cfg = BaseCfg(8, 0);
  cfg.dispatch_occupancy_ns = 2000;
  CentralizedEngine engine(rig.machine.get(), rig.chip.get(), rig.kernel.get(), &policy, cfg);
  App* app = engine.CreateApp("lc");
  engine.Start();
  // Offer 1000 tasks in one burst; workers could absorb 8/us but the
  // dispatcher can only hand out one per 2 us.
  for (int i = 0; i < 1000; i++) {
    engine.Submit(engine.NewTask(app, Micros(1)));
  }
  rig.sim.RunUntil(Millis(1));
  // ~1 ms / 2 us = ~500 dispatched, not all 1000.
  EXPECT_GT(engine.stats().completed, 400u);
  EXPECT_LT(engine.stats().completed, 620u);
  rig.sim.RunUntil(Millis(10));
  EXPECT_EQ(engine.stats().completed, 1000u);
}

TEST(CentralizedQuantumTest, ReArmsWhenQueueEmpty) {
  // A lone long task is never preempted (queue empty), but the quantum timer
  // keeps re-checking: as soon as another task arrives, preemption lands
  // within ~one quantum.
  Rig rig(2);
  ShinjukuPolicy policy;
  CentralizedEngine engine(rig.machine.get(), rig.chip.get(), rig.kernel.get(), &policy,
                           BaseCfg(1, Micros(30)));
  App* app = engine.CreateApp("lc");
  engine.Start();
  engine.Submit(engine.NewTask(app, Millis(2), 1));
  rig.sim.RunUntil(Millis(1));
  EXPECT_EQ(engine.preempts_sent(), 0u);
  engine.Submit(engine.NewTask(app, Micros(4), 0));
  rig.sim.RunUntil(Millis(1) + Micros(80));
  EXPECT_GE(engine.preempts_sent(), 1u);
  EXPECT_EQ(engine.stats().latency_by_kind[0].Count(), 1u)
      << "short task must have completed shortly after arriving";
}

TEST(CentralizedQuantumTest, SpuriousIpiIsAbsorbed) {
  // A preemption IPI that lands after its target already finished must not
  // preempt the successor (generation check) — the successor still completes
  // with only the small handler charge.
  Rig rig(2);
  ShinjukuPolicy policy;
  CentralizedEngine engine(rig.machine.get(), rig.chip.get(), rig.kernel.get(), &policy,
                           BaseCfg(1, Micros(30)));
  App* app = engine.CreateApp("lc");
  engine.Start();
  // Task A's length is just past the quantum so the IPI is in flight right
  // as it completes; task B follows immediately.
  engine.Submit(engine.NewTask(app, Micros(30) + 500, 0));
  engine.Submit(engine.NewTask(app, Micros(20), 1));
  rig.sim.RunUntil(Millis(5));
  EXPECT_EQ(engine.stats().completed, 2u);
  // B must not have been bounced back through the queue by A's stale IPI.
  EXPECT_EQ(engine.stats().latency_by_kind[1].Max(),
            engine.stats().latency_by_kind[1].Min());
}

TEST(CentralizedAllocatorTest, MinLcWorkersRespected) {
  Rig rig(4);
  ShinjukuPolicy policy;
  auto cfg = BaseCfg(3, Micros(30));
  cfg.core_alloc = true;
  CentralizedEngine engine(rig.machine.get(), rig.chip.get(), rig.kernel.get(), &policy, cfg);
  engine.CreateApp("lc");
  App* be = engine.CreateApp("batch", true);
  engine.AttachBestEffortApp(be);
  engine.Start();
  rig.sim.RunUntil(Millis(10));
  EXPECT_EQ(engine.BestEffortWorkers(), 2) << "allocator must keep 1 LC worker in reserve";
}

TEST(CentralizedAllocatorTest, GrantReclaimCyclesAreStable) {
  // Alternate quiet/burst many times; every cycle must reclaim and re-grant
  // without leaking cores or violating the binding rule.
  Rig rig(3);
  ShinjukuPolicy policy;
  auto cfg = BaseCfg(2, Micros(30));
  cfg.core_alloc = true;
  CentralizedEngine engine(rig.machine.get(), rig.chip.get(), rig.kernel.get(), &policy, cfg);
  App* lc = engine.CreateApp("lc");
  App* be = engine.CreateApp("batch", true);
  engine.AttachBestEffortApp(be);
  engine.Start();
  std::uint64_t submitted = 0;
  for (int cycle = 0; cycle < 50; cycle++) {
    const TimeNs burst_at = Millis(1) + cycle * Millis(2);
    for (int i = 0; i < 20; i++) {
      rig.sim.ScheduleAt(burst_at, [&engine, lc, &submitted] {
        submitted++;
        engine.Submit(engine.NewTask(lc, Micros(30)));
      });
    }
  }
  rig.sim.RunUntil(Millis(110));
  EXPECT_EQ(engine.stats().completed, submitted);
  EXPECT_EQ(engine.BestEffortWorkers(), 1) << "quiet at the end: batch holds a core again";
  rig.kernel->CheckBindingRule();
}

TEST(CentralizedEngineDeathTest, DispatcherNeedsCoreAfterWorkers) {
  Rig rig(2);
  ShinjukuPolicy policy;
  EXPECT_DEATH(CentralizedEngine(rig.machine.get(), rig.chip.get(), rig.kernel.get(), &policy,
                                 BaseCfg(2, Micros(30))),
               "no dispatcher core");
}

}  // namespace
}  // namespace skyloft
