// Tests for the §6 "Discussion" features: User-Timer Events (kernel-bypass
// timer reset), peripheral MSI delegation to user space, and blocking-event
// (page fault) handling under the Single Binding Rule.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/simcore/simulation.h"
#include "src/libos/percpu_engine.h"
#include "src/net/nic.h"
#include "src/policies/round_robin.h"
#include "src/policies/work_stealing.h"
#include "src/uintr/msi_device.h"

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

// ---- User-Timer Events (chip level) ----

TEST(UserTimerEventsTest, FiresAtProgrammedDeadline) {
  Rig rig(2);
  std::vector<UintrFrame> frames;
  TimeNs fired_at = -1;
  rig.chip->unit(0).SetHandler([&](const UintrFrame& frame) {
    frames.push_back(frame);
    fired_at = rig.sim.Now();
  });
  rig.chip->ProgramUserTimerDeadline(0, Micros(50));
  EXPECT_TRUE(rig.chip->UserTimerArmed(0));
  rig.sim.Run();
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(fired_at, Micros(50));
  EXPECT_TRUE(frames[0].from_timer);
  EXPECT_EQ(frames[0].vector, kUserTimerUivec);
  EXPECT_EQ(frames[0].receive_cost_ns, rig.machine->costs().UserTimerReceiveNs());
  EXPECT_FALSE(rig.chip->UserTimerArmed(0));
}

TEST(UserTimerEventsTest, ReprogramReplacesDeadline) {
  Rig rig(1);
  int fires = 0;
  rig.chip->unit(0).SetHandler([&](const UintrFrame&) { fires++; });
  rig.chip->ProgramUserTimerDeadline(0, Micros(10));
  rig.chip->ProgramUserTimerDeadline(0, Micros(100));  // replaces, not adds
  rig.sim.RunUntil(Micros(50));
  EXPECT_EQ(fires, 0);
  rig.sim.RunUntil(Micros(200));
  EXPECT_EQ(fires, 1);
}

TEST(UserTimerEventsTest, CancelPreventsFire) {
  Rig rig(1);
  int fires = 0;
  rig.chip->unit(0).SetHandler([&](const UintrFrame&) { fires++; });
  rig.chip->ProgramUserTimerDeadline(0, Micros(10));
  rig.chip->CancelUserTimerDeadline(0);
  rig.sim.RunUntil(Millis(1));
  EXPECT_EQ(fires, 0);
}

TEST(UserTimerEventsTest, NoPirOrIpiInvolved) {
  // Unlike timer delegation, UTE needs no UPID priming: delivery works with
  // no active UPID at all.
  Rig rig(1);
  int fires = 0;
  rig.chip->unit(0).SetHandler([&](const UintrFrame&) { fires++; });
  ASSERT_EQ(rig.chip->unit(0).active_upid(), nullptr);
  rig.chip->ProgramUserTimerDeadline(0, Micros(5));
  rig.sim.Run();
  EXPECT_EQ(fires, 1);
}

// ---- User-Timer Events (engine: kUserDeadline tick path) ----

PerCpuEngineConfig DeadlineCfg(int cores, DurationNs quantum) {
  PerCpuEngineConfig cfg;
  for (int i = 0; i < cores; i++) {
    cfg.base.worker_cores.push_back(i);
  }
  cfg.tick_path = TickPath::kUserDeadline;
  cfg.timer_hz = kSecond / quantum;
  return cfg;
}

TEST(DeadlineEngineTest, PreemptsLikePeriodicTimer) {
  Rig rig(1);
  RoundRobinPolicy policy(Micros(50));
  PerCpuEngine engine(rig.machine.get(), rig.chip.get(), rig.kernel.get(), &policy,
                      DeadlineCfg(1, Micros(50)));
  App* app = engine.CreateApp("a");
  engine.Start();
  engine.Submit(engine.NewTask(app, Millis(10), 1));
  engine.Submit(engine.NewTask(app, Micros(4), 0));
  rig.sim.RunUntil(Millis(50));
  EXPECT_EQ(engine.stats().completed, 2u);
  EXPECT_LT(engine.stats().latency_by_kind[0].Max(), Micros(200));
}

TEST(DeadlineEngineTest, NoTicksWhenIdle) {
  // The headline benefit over the periodic 100 kHz tick: an idle machine
  // takes zero timer interrupts.
  Rig rig(2);
  RoundRobinPolicy policy(Micros(50));
  PerCpuEngine engine(rig.machine.get(), rig.chip.get(), rig.kernel.get(), &policy,
                      DeadlineCfg(2, Micros(50)));
  App* app = engine.CreateApp("a");
  engine.Start();
  engine.Submit(engine.NewTask(app, Micros(10)));
  rig.sim.RunUntil(Millis(100));
  EXPECT_EQ(engine.stats().completed, 1u);
  // Only the one assignment's deadline could have fired (task finished
  // first, so likely zero) — nothing close to 100ms/50us = 2000 ticks.
  EXPECT_LE(engine.ticks(), 1u);
}

TEST(DeadlineEngineTest, TickCountScalesWithWorkNotWallTime) {
  Rig rig(1);
  RoundRobinPolicy policy(Micros(50));
  PerCpuEngine engine(rig.machine.get(), rig.chip.get(), rig.kernel.get(), &policy,
                      DeadlineCfg(1, Micros(50)));
  App* app = engine.CreateApp("a");
  engine.Start();
  // 2 ms of CPU-bound work in two competing tasks -> ~2ms/50us = 40 ticks,
  // then silence for the rest of the 100 ms window.
  engine.Submit(engine.NewTask(app, Millis(1)));
  engine.Submit(engine.NewTask(app, Millis(1)));
  rig.sim.RunUntil(Millis(100));
  EXPECT_EQ(engine.stats().completed, 2u);
  EXPECT_GE(engine.ticks(), 30u);
  EXPECT_LE(engine.ticks(), 60u);
}

// ---- Peripheral MSI delegation (§6) ----

TEST(MsiDeviceTest, DefaultRouteTakesKernelPath) {
  Rig rig(2);
  MsiDevice nic_msi(rig.chip.get(), /*target=*/1, kNicMsiVector);
  int kernel_irqs = 0;
  rig.chip->SetLegacyHandler([&](CoreId core, int vector) {
    EXPECT_EQ(core, 1);
    EXPECT_EQ(vector, kNicMsiVector);
    kernel_irqs++;
  });
  nic_msi.Raise();
  rig.sim.Run();
  EXPECT_EQ(kernel_irqs, 1);
}

TEST(MsiDeviceTest, DelegatedMsiHandledInUserSpace) {
  // Same recipe as timer delegation: UINV = device vector, SN-primed PIR.
  Rig rig(2);
  MsiDevice nic_msi(rig.chip.get(), 1, kNicMsiVector);
  Upid upid;
  upid.sn = true;
  upid.ndst = 1;
  upid.nv = kNicMsiVector;
  UserInterruptUnit& unit = rig.chip->unit(1);
  unit.SetUinv(kNicMsiVector);
  unit.SetActiveUpid(&upid);
  const int self_idx = rig.chip->RegisterUittEntry(1, &upid, 2);
  int user_irqs = 0;
  int kernel_irqs = 0;
  unit.SetHandler([&](const UintrFrame& frame) {
    user_irqs++;
    rig.chip->SendUipi(1, self_idx);  // re-arm, as for timers
  });
  rig.chip->SetLegacyHandler([&](CoreId, int) { kernel_irqs++; });
  rig.chip->SendUipi(1, self_idx);  // prime
  for (int i = 0; i < 5; i++) {
    nic_msi.Raise();
  }
  rig.sim.Run();
  EXPECT_EQ(user_irqs, 5);
  EXPECT_EQ(kernel_irqs, 0) << "delegated MSIs must bypass the kernel";
}

TEST(MsiDeviceTest, InterruptDrivenNicRxPath) {
  // Full §6 peripheral story: packet -> RSS ring -> MSI -> user-space
  // handler drains the ring. No polling loop anywhere.
  Rig rig(2);
  std::vector<std::uint64_t> received;
  auto nic = std::make_unique<Nic>(&rig.sim, /*queues=*/1, /*wire=*/Micros(5), 64, nullptr);
  MsiDevice msi(rig.chip.get(), 0, kNicMsiVector);

  Upid upid;
  upid.sn = true;
  upid.ndst = 0;
  upid.nv = kNicMsiVector;
  UserInterruptUnit& unit = rig.chip->unit(0);
  unit.SetUinv(kNicMsiVector);
  unit.SetActiveUpid(&upid);
  const int self_idx = rig.chip->RegisterUittEntry(0, &upid, 2);
  unit.SetHandler([&](const UintrFrame&) {
    rig.chip->SendUipi(0, self_idx);
    Packet p;
    while (nic->PollQueue(0, &p)) {
      received.push_back(p.flow);
    }
  });
  rig.chip->SendUipi(0, self_idx);

  // Rebuild the NIC with an MSI-raising deliver hook.
  nic = std::make_unique<Nic>(&rig.sim, 1, Micros(5), 64, [&](int) { msi.Raise(); });
  for (std::uint64_t f = 1; f <= 10; f++) {
    Packet p;
    p.flow = f;
    nic->Transmit(p);
  }
  rig.sim.Run();
  EXPECT_EQ(received.size(), 10u);
  EXPECT_EQ(msi.raised(), 10u);
}

// ---- Blocking events / page faults (§6) ----

PerCpuEngineConfig FaultCfg(int cores) {
  PerCpuEngineConfig cfg;
  for (int i = 0; i < cores; i++) {
    cfg.base.worker_cores.push_back(i);
  }
  cfg.timer_hz = 100'000;
  cfg.tick_path = TickPath::kUserTimer;
  return cfg;
}

TEST(PageFaultTest, OtherAppRunsDuringFault) {
  Rig rig(1);
  // Infinite quantum: A is never quantum-preempted, so the fault is the only
  // thing that can take it off the core.
  WorkStealingPolicy policy(WorkStealingParams{kInfiniteSliceWs, 1});
  PerCpuEngine engine(rig.machine.get(), rig.chip.get(), rig.kernel.get(), &policy,
                      FaultCfg(1));
  App* app_a = engine.CreateApp("a");
  App* app_b = engine.CreateApp("b");
  engine.Start();
  engine.Submit(engine.NewTask(app_a, Millis(1), /*kind=*/0));
  engine.Submit(engine.NewTask(app_b, Micros(50), /*kind=*/1));
  // Fault the running A task at t=100us for 500us.
  rig.sim.ScheduleAt(Micros(100), [&] { engine.InjectPageFault(0, Micros(500)); });
  rig.sim.RunUntil(Millis(5));
  EXPECT_EQ(engine.stats().completed, 2u);
  // B completed *during* A's fault window, long before A.
  EXPECT_LT(engine.stats().latency_by_kind[1].Max(), Micros(250));
  EXPECT_GT(engine.stats().latency_by_kind[0].Max(), Millis(1) + Micros(500) - Micros(10));
  rig.kernel->CheckBindingRule();
}

TEST(PageFaultTest, FaultedAppTasksStayOffTheCore) {
  Rig rig(1);
  WorkStealingPolicy policy(WorkStealingParams{kInfiniteSliceWs, 1});
  PerCpuEngine engine(rig.machine.get(), rig.chip.get(), rig.kernel.get(), &policy,
                      FaultCfg(1));
  App* app_a = engine.CreateApp("a");
  engine.CreateApp("b");
  engine.Start();
  Task* first = engine.NewTask(app_a, Millis(1), 0);
  engine.Submit(first);
  engine.Submit(engine.NewTask(app_a, Micros(10), 1));  // same app, queued
  rig.sim.ScheduleAt(Micros(100), [&] { engine.InjectPageFault(0, Millis(1)); });
  rig.sim.RunUntil(Micros(500));
  // During the fault neither A task may run: none completed yet.
  EXPECT_EQ(engine.stats().completed, 0u);
  EXPECT_TRUE(engine.AppFaultedOn(0, app_a));
  rig.sim.RunUntil(Millis(10));
  EXPECT_EQ(engine.stats().completed, 2u) << "both must finish after resolution";
}

TEST(PageFaultTest, FaultOnIdleWorkerIsNoop) {
  Rig rig(1);
  RoundRobinPolicy policy(Micros(50));
  PerCpuEngine engine(rig.machine.get(), rig.chip.get(), rig.kernel.get(), &policy,
                      FaultCfg(1));
  engine.CreateApp("a");
  engine.Start();
  engine.InjectPageFault(0, Micros(100));  // nothing running
  rig.sim.RunUntil(Millis(1));
  EXPECT_FALSE(engine.AppFaultedOn(0, nullptr));
}

TEST(PageFaultTest, RandomFaultInjectionConservesTasks) {
  Rig rig(4);
  WorkStealingPolicy policy(WorkStealingParams{Micros(20), 5});
  PerCpuEngine engine(rig.machine.get(), rig.chip.get(), rig.kernel.get(), &policy,
                      FaultCfg(4));
  App* app_a = engine.CreateApp("a");
  App* app_b = engine.CreateApp("b");
  engine.Start();
  Rng rng(123);
  std::uint64_t submitted = 0;
  for (int i = 0; i < 800; i++) {
    const auto at = static_cast<TimeNs>(rng.NextBelow(Millis(10)));
    rig.sim.ScheduleAt(at, [&engine, &rng, &submitted, app_a, app_b] {
      submitted++;
      App* app = rng.NextBool(0.5) ? app_a : app_b;
      engine.Submit(engine.NewTask(app, 500 + static_cast<DurationNs>(rng.NextBelow(Micros(100)))));
    });
  }
  for (int i = 0; i < 100; i++) {
    const auto at = static_cast<TimeNs>(rng.NextBelow(Millis(10)));
    rig.sim.ScheduleAt(at, [&engine, &rng] {
      engine.InjectPageFault(static_cast<int>(rng.NextBelow(4)),
                             Micros(10) + static_cast<DurationNs>(rng.NextBelow(Micros(200))));
    });
  }
  rig.sim.RunUntil(kSecond);
  EXPECT_EQ(engine.stats().completed, submitted);
  rig.kernel->CheckBindingRule();
}

}  // namespace
}  // namespace skyloft
