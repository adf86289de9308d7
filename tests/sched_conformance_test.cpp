// Policy-conformance suite: each of the six standard policies must uphold
// the Table 2 interface contract on BOTH substrates — the simulated engines
// (src/libos) and the real host runtime (src/runtime).
//
// Checked per policy:
//   - no lost / no duplicated tasks (everything submitted completes exactly
//     once, queues drain to empty)
//   - work conservation (parallel makespan beats serial execution)
//   - the engine honors the preemption flag / the policy's tick verdict
//
// The same policy objects run under both drivers; this suite is the
// executable form of the paper's generality claim.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/simcore/simulation.h"
#include "src/libos/central_engine.h"
#include "src/libos/percpu_engine.h"
#include "src/policies/cfs.h"
#include "src/policies/eevdf.h"
#include "src/policies/round_robin.h"
#include "src/policies/shinjuku.h"
#include "src/policies/work_stealing.h"
#include "src/runtime/uthread.h"

namespace skyloft {
namespace {

struct StandardPolicy {
  const char* name;
  bool centralized;
  std::unique_ptr<SchedPolicy> (*make)();
};

// The repo's Table 4 policies with their default parameters (RR: the
// 12.5 us Table 5 slice).
const StandardPolicy kStandardPolicies[] = {
    {"fifo", false, []() -> std::unique_ptr<SchedPolicy> {
       return std::make_unique<RoundRobinPolicy>(kInfiniteSlice);
     }},
    {"rr", false, []() -> std::unique_ptr<SchedPolicy> {
       return std::make_unique<RoundRobinPolicy>(Micros(12) + 500);
     }},
    {"cfs", false, []() -> std::unique_ptr<SchedPolicy> {
       return std::make_unique<CfsPolicy>(CfsParams{});
     }},
    {"eevdf", false, []() -> std::unique_ptr<SchedPolicy> {
       return std::make_unique<EevdfPolicy>(EevdfParams{});
     }},
    {"ws", false, []() -> std::unique_ptr<SchedPolicy> {
       return std::make_unique<WorkStealingPolicy>(WorkStealingParams{});
     }},
    {"shinjuku", true, []() -> std::unique_ptr<SchedPolicy> {
       return std::make_unique<ShinjukuPolicy>();
     }},
};

std::string PolicyParamName(const ::testing::TestParamInfo<StandardPolicy>& info) {
  return info.param.name;
}

// ---- Simulated substrate ----

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

PerCpuEngineConfig PerCpuCfg(int cores) {
  PerCpuEngineConfig cfg;
  for (int i = 0; i < cores; i++) {
    cfg.base.worker_cores.push_back(i);
  }
  cfg.base.local_switch_ns = 100;
  cfg.timer_hz = 100'000;
  return cfg;
}

CentralizedEngineConfig CentralCfg(int workers, DurationNs quantum) {
  CentralizedEngineConfig cfg;
  for (int i = 0; i < workers; i++) {
    cfg.base.worker_cores.push_back(i);
  }
  cfg.quantum = quantum;
  cfg.base.local_switch_ns = 100;
  return cfg;
}

class SimConformanceTest : public ::testing::TestWithParam<StandardPolicy> {};

// Drives `engine` through plain tasks plus tasks that block mid-life and get
// woken, then checks nothing was lost or duplicated and the queues drained.
template <typename EngineT>
void RunLifecycleWorkload(SimRig& rig, EngineT& engine) {
  App* app = engine.CreateApp("a");
  engine.Start();
  for (int i = 0; i < 16; i++) {
    engine.Submit(engine.NewTask(app, Micros(10)));
  }
  for (int i = 0; i < 8; i++) {
    Task* t = engine.NewTask(app, Micros(10), /*kind=*/1);
    t->on_segment_end = [&rig, &engine](Task* task) {
      if (task->kind == 1) {
        task->kind = 2;  // the post-wakeup segment finishes normally
        rig.sim.ScheduleAfter(Micros(5), [&engine, task] { engine.WakeTask(task, Micros(10)); });
        return SegmentAction::kBlock;
      }
      return SegmentAction::kFinish;
    };
    engine.Submit(t);
  }
  rig.sim.RunUntil(Millis(50));
  EXPECT_EQ(engine.stats().completed, 24u) << "lost or duplicated tasks";
  EXPECT_EQ(engine.policy().QueuedTasks(), 0u) << "runqueues must drain";
}

TEST_P(SimConformanceTest, NoLostNoDuplicatedTasks) {
  const StandardPolicy& entry = GetParam();
  auto policy = entry.make();
  if (entry.centralized) {
    SimRig rig(3);
    CentralizedEngine engine(rig.machine.get(), rig.chip.get(), rig.kernel.get(), policy.get(),
                             CentralCfg(2, Micros(30)));
    RunLifecycleWorkload(rig, engine);
  } else {
    SimRig rig(2);
    PerCpuEngine engine(rig.machine.get(), rig.chip.get(), rig.kernel.get(), policy.get(),
                        PerCpuCfg(2));
    RunLifecycleWorkload(rig, engine);
  }
}

TEST_P(SimConformanceTest, WorkConservation) {
  const StandardPolicy& entry = GetParam();
  auto policy = entry.make();
  // 8 x 200us over 2 workers: serial needs 1.6ms, work-conserving ~0.8ms.
  // All tasks are hinted at worker 0, so the second worker only stays busy
  // via sched_balance / the dispatcher.
  const TimeNs deadline = Micros(1200);
  if (entry.centralized) {
    SimRig rig(3);
    CentralizedEngine engine(rig.machine.get(), rig.chip.get(), rig.kernel.get(), policy.get(),
                             CentralCfg(2, Micros(30)));
    App* app = engine.CreateApp("a");
    engine.Start();
    for (int i = 0; i < 8; i++) {
      engine.Submit(engine.NewTask(app, Micros(200)));
    }
    rig.sim.RunUntil(deadline);
    EXPECT_EQ(engine.stats().completed, 8u) << "idle worker left runnable work waiting";
  } else {
    SimRig rig(2);
    PerCpuEngine engine(rig.machine.get(), rig.chip.get(), rig.kernel.get(), policy.get(),
                        PerCpuCfg(2));
    App* app = engine.CreateApp("a");
    engine.Start();
    for (int i = 0; i < 8; i++) {
      engine.Submit(engine.NewTask(app, Micros(200)), /*worker_hint=*/0);
    }
    rig.sim.RunUntil(deadline);
    EXPECT_EQ(engine.stats().completed, 8u) << "idle worker left runnable work waiting";
  }
}

TEST_P(SimConformanceTest, RunsToCompletionWithoutPreemption) {
  const StandardPolicy& entry = GetParam();
  auto policy = entry.make();
  // One core, a 2ms hog submitted first, a 10us task second. With
  // preemption off (no tick / zero quantum), the short task MUST wait
  // behind the hog no matter what the policy's tick would have decided.
  auto check = [](auto& rig, auto& engine) {
    App* app = engine.CreateApp("a");
    engine.Start();
    engine.Submit(engine.NewTask(app, Millis(2), /*kind=*/0));
    engine.Submit(engine.NewTask(app, Micros(10), /*kind=*/1));
    rig.sim.RunUntil(Millis(10));
    EXPECT_EQ(engine.stats().completed, 2u);
    EXPECT_GT(engine.stats().latency_by_kind[1].Max(), Millis(1))
        << "short task ran early: the engine preempted with preemption disabled";
  };
  if (entry.centralized) {
    SimRig rig(2);
    CentralizedEngine engine(rig.machine.get(), rig.chip.get(), rig.kernel.get(), policy.get(),
                             CentralCfg(1, /*quantum=*/0));
    check(rig, engine);
  } else {
    SimRig rig(1);
    auto cfg = PerCpuCfg(1);
    cfg.tick_path = TickPath::kNone;
    PerCpuEngine engine(rig.machine.get(), rig.chip.get(), rig.kernel.get(), policy.get(), cfg);
    check(rig, engine);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, SimConformanceTest,
                         ::testing::ValuesIn(kStandardPolicies), PolicyParamName);

// ---- Host substrate ----

class HostConformanceTest : public ::testing::TestWithParam<StandardPolicy> {};

TEST_P(HostConformanceTest, NoLostNoDuplicatedUThreads) {
  auto policy = GetParam().make();
  RuntimeOptions opts{.workers = 2};
  opts.policy = policy.get();
  Runtime rt(opts);
  constexpr int kThreads = 300;
  auto slots = std::make_unique<std::atomic<int>[]>(kThreads);
  for (int i = 0; i < kThreads; i++) {
    slots[i].store(0);
  }
  rt.Run([&] {
    std::vector<UThread*> children;
    for (int i = 0; i < kThreads; i++) {
      children.push_back(Runtime::Spawn([&slots, i] {
        slots[i].fetch_add(1);
        Runtime::Yield();
        slots[i].fetch_add(1);
      }));
    }
    for (UThread* c : children) {
      Runtime::Join(c);
    }
  });
  for (int i = 0; i < kThreads; i++) {
    EXPECT_EQ(slots[i].load(), 2) << "uthread " << i << " lost or run twice under "
                                  << GetParam().name;
  }
  EXPECT_EQ(rt.policy_name(), std::string(policy->Name())) << "runtime must use the custom policy";
}

TEST_P(HostConformanceTest, TimerTicksDoNotLoseWork) {
  // The signal timer delivers sched_timer_tick to the policy while real
  // compute runs; whatever the policy decides, all work must complete.
  auto policy = GetParam().make();
  RuntimeOptions opts{.workers = 2, .preempt_period_us = 1000};
  opts.policy = policy.get();
  Runtime rt(opts);
  std::atomic<long long> total{0};
  rt.Run([&] {
    std::vector<UThread*> children;
    for (int i = 0; i < 4; i++) {
      children.push_back(Runtime::Spawn([&] {
        long long local = 0;
        for (int j = 0; j < 500'000; j++) {
          local += j % 5;
        }
        total.fetch_add(local);
      }));
    }
    for (UThread* c : children) {
      Runtime::Join(c);
    }
  });
  long long expected_one = 0;
  for (int j = 0; j < 500'000; j++) {
    expected_one += j % 5;
  }
  EXPECT_EQ(total.load(), expected_one * 4);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, HostConformanceTest,
                         ::testing::ValuesIn(kStandardPolicies), PolicyParamName);

// ---- Host preemption-flag honoring (policy-specific semantics) ----

TEST(HostPolicySemanticsTest, FifoNeverPreempts) {
  RoundRobinPolicy fifo(kInfiniteSlice);
  Runtime rt(RuntimeOptions{.workers = 1, .preempt_period_us = 1000, .policy = &fifo});
  std::atomic<long long> sink{0};
  rt.Run([&] {
    std::vector<UThread*> children;
    for (int i = 0; i < 3; i++) {
      children.push_back(Runtime::Spawn([&] {
        long long local = 0;
        for (int j = 0; j < 2'000'000; j++) {
          local += j % 3;
        }
        sink.fetch_add(local);
      }));
    }
    for (UThread* c : children) {
      Runtime::Join(c);
    }
  });
  // Ticks fired (the timer ran for milliseconds of compute) but FIFO's
  // sched_timer_tick always says no — the engine must honor that.
  EXPECT_EQ(rt.preemptions(), 0u);
  EXPECT_EQ(std::string(rt.policy_name()), "skyloft-rr");  // RR with infinite slice
}

TEST(HostPolicySemanticsTest, RoundRobinPreemptsCpuHog) {
  RoundRobinPolicy rr(Micros(500));
  Runtime rt(RuntimeOptions{.workers = 1, .preempt_period_us = 1000, .policy = &rr});
  std::atomic<bool> hog_running{true};
  bool other_ran = false;
  rt.Run([&] {
    UThread* hog = Runtime::Spawn([&] {
      volatile std::uint64_t x = 0;
      while (hog_running.load(std::memory_order_relaxed)) {
        x = x + 1;
      }
    });
    UThread* other = Runtime::Spawn([&] {
      other_ran = true;
      hog_running.store(false);
    });
    Runtime::Join(other);
    Runtime::Join(hog);
  });
  EXPECT_TRUE(other_ran);
  EXPECT_GT(rt.preemptions(), 0u);
}

// ---- Driver selection (SchedPolicy::SupportsLockFree capability) ----
//
// The host scheduler runs a policy on one of two drivers: the lock-free
// two-level runqueue (mailbox -> Chase-Lev deque, DESIGN.md section 9) when
// the policy declares its discipline is FIFO + steal-half, or the shard-mutex
// driver otherwise. The conformance suites above already exercise both (the
// "ws" entry rides lock-free, everything else rides the mutex); these tests
// pin the selection logic itself.

TEST(HostDriverSelectionTest, WorkStealingSelectsLockFreeDriver) {
  Runtime rt(RuntimeOptions{.workers = 2});  // default policy: work stealing
  EXPECT_TRUE(rt.lock_free_sched());
  EXPECT_EQ(std::string(rt.policy_name()), "skyloft-ws");
}

TEST(HostDriverSelectionTest, OrderingPoliciesKeepShardMutexDriver) {
  CfsPolicy cfs(CfsParams{});
  EevdfPolicy eevdf(EevdfParams{});
  RoundRobinPolicy rr(Micros(12) + 500);
  RoundRobinPolicy fifo(kInfiniteSlice);
  for (SchedPolicy* p : std::vector<SchedPolicy*>{&cfs, &eevdf, &rr, &fifo}) {
    Runtime rt(RuntimeOptions{.workers = 2, .policy = p});
    EXPECT_FALSE(rt.lock_free_sched()) << p->Name();
  }
}

// ---- Quantum plumbing (ISSUE 9) ----

// A policy's own quantum parameter is the one the runtime enforces: both
// drivers report it through QuantumFor. The lock-free driver keeps its own
// copy of the work-stealing quantum, so this pins that copy too. (FIFO has
// no slice: it is RR with an infinite slice by definition.)
TEST(HostQuantumPlumbingTest, PolicyQuantumReachesEveryDriver) {
  RoundRobinPolicy rr(Micros(300));
  CfsPolicy cfs(CfsParams{.min_granularity = Micros(300), .sched_latency = Micros(1200)});
  EevdfPolicy eevdf(EevdfParams{.base_slice = Micros(300)});
  WorkStealingPolicy ws(WorkStealingParams{.quantum = Micros(300)});
  for (SchedPolicy* p : std::vector<SchedPolicy*>{&rr, &cfs, &eevdf, &ws}) {
    Runtime rt(RuntimeOptions{.workers = 1, .policy = p});
    EXPECT_EQ(rt.QuantumFor(), Micros(300)) << "policy " << rt.policy_name();
  }
}

// "No quantum" reads the same on both drivers: the policy's infinite
// sentinel, whether the lock-free driver holds the work-stealing quantum or
// the mutex driver asks FIFO.
TEST(HostQuantumPlumbingTest, DisabledQuantumReadsInfiniteOnBothDrivers) {
  WorkStealingPolicy ws(WorkStealingParams{.quantum = 0});
  RoundRobinPolicy fifo(kInfiniteSlice);
  for (SchedPolicy* p : std::vector<SchedPolicy*>{&ws, &fifo}) {
    Runtime rt(RuntimeOptions{.workers = 1, .policy = p});
    EXPECT_EQ(rt.QuantumFor(), kInfiniteSlice) << "policy " << rt.policy_name();
  }
  Runtime rt(RuntimeOptions{.workers = 1});
  rt.SetQuantum(0);
  EXPECT_EQ(rt.QuantumFor(), kInfiniteSlice) << "SetQuantum(0) on the lock-free driver";
}

// SetQuantum mid-run must take effect on the live driver — the lock-free
// path rereads its atomic quantum on every Tick (it used to latch
// it once at driver selection) — without spurious preemptions while the
// quantum is long and without dropped ones once it is short. Runs under the
// TSan CI job: the controller thread writes the quantum while workers and
// the signal path read it.
void MidRunSetQuantumTakesEffect(SchedPolicy* policy) {
  SchedTracer tracer(1 << 16);
  Runtime rt(RuntimeOptions{
      .workers = 1, .preempt_period_us = 500, .policy = policy, .tracer = &tracer});
  const auto spin_for = [](std::int64_t us) {
    const auto until = std::chrono::steady_clock::now() + std::chrono::microseconds(us);
    volatile std::uint64_t x = 0;
    while (std::chrono::steady_clock::now() < until) {
      x = x + 1;
    }
  };
  std::uint64_t phase_a_preemptions = 0;
  bool released_by_other = false;
  rt.Run([&] {
    // Phase A: two bounded spinners keep the queue non-empty while ticks
    // fire; nothing runs close to the 1 s quantum, so any preemption here
    // is spurious.
    UThread* a = Runtime::Spawn([&] { spin_for(10'000); });
    UThread* b = Runtime::Spawn([&] { spin_for(10'000); });
    Runtime::Join(a);
    Runtime::Join(b);
    phase_a_preemptions = rt.preemptions();

    // Phase B: tighten mid-run. The hog can only finish if the new 500 us
    // quantum actually preempts it so the releaser gets the worker.
    rt.SetQuantum(Micros(500));
    std::atomic<bool> release{false};
    UThread* hog = Runtime::Spawn([&] {
      const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(20);
      volatile std::uint64_t x = 0;
      while (!release.load(std::memory_order_relaxed)) {
        x = x + 1;
        if (std::chrono::steady_clock::now() >= give_up) {
          return;  // preemption never came; fail below instead of hanging
        }
      }
      released_by_other = true;
    });
    UThread* other = Runtime::Spawn([&] { release.store(true); });
    Runtime::Join(hog);
    Runtime::Join(other);
  });
  EXPECT_EQ(phase_a_preemptions, 0u) << "spurious preemption under a 1 s quantum";
  EXPECT_TRUE(released_by_other) << "SetQuantum(500us) mid-run never preempted the hog";
  EXPECT_GT(rt.preemptions(), 0u);
  // The timer genuinely ran during phase A (signals were delivered or
  // deferred), so the zero-preemption count means "honored the quantum",
  // not "timer never fired".
  EXPECT_GT(tracer.CountOf(TraceEventType::kSignal) +
                tracer.CountOf(TraceEventType::kDeferred),
            0u);
}

// Both start in phase A with a 1 s quantum.
TEST(HostQuantumPlumbingTest, SetQuantumMidRunLockFreeDriver) {
  WorkStealingPolicy ws(WorkStealingParams{.quantum = Millis(1000)});
  MidRunSetQuantumTakesEffect(&ws);
}

// Round robin rides the shard-mutex driver.
TEST(HostQuantumPlumbingTest, SetQuantumMidRunShardMutexDriver) {
  RoundRobinPolicy rr(Millis(1000));
  MidRunSetQuantumTakesEffect(&rr);
}

// Pin for the ISSUE 9 run-charging audit: LfRunData::ran is charged exactly
// once per dispatched span and reset on dequeue; a deferred preemption
// signal does not re-charge the span it already billed and double-fire next
// period. Observable contract: tasks that always yield well inside the
// quantum are never preempted, however much total CPU they accumulate — if
// charge leaked across spans (or a deferral re-billed one), the quantum
// would trip despite every span being ~100x shorter than it.
TEST(HostQuantumPlumbingTest, RunChargingResetsPerDispatchedSpan) {
  WorkStealingPolicy ws(WorkStealingParams{.quantum = Millis(20)});
  Runtime rt(RuntimeOptions{.workers = 1, .preempt_period_us = 500, .policy = &ws});
  const auto burst = [] {
    const auto until = std::chrono::steady_clock::now() + std::chrono::microseconds(200);
    volatile std::uint64_t x = 0;
    while (std::chrono::steady_clock::now() < until) {
      x = x + 1;
    }
  };
  rt.Run([&] {
    // Two cooperative tasks interleave, keeping the queue non-empty so the
    // ws policy WOULD preempt if a span ever read as >= 20 ms. Each task
    // accumulates ~40 ms total CPU in ~200 us slices.
    std::vector<UThread*> tasks;
    for (int t = 0; t < 2; t++) {
      tasks.push_back(Runtime::Spawn([&burst] {
        for (int i = 0; i < 200; i++) {
          burst();
          Runtime::Yield();
        }
      }));
    }
    for (UThread* t : tasks) {
      Runtime::Join(t);
    }
  });
  EXPECT_EQ(rt.preemptions(), 0u)
      << "a span was charged more than its own run time (cross-span leak or "
         "deferral double-charge)";
}

TEST(HostPolicySemanticsTest, ExternalSubmissionsArePlaced) {
  // Run()'s main uthread enters from outside the runtime; the scheduler
  // must route it through idle-first/least-loaded placement and count it.
  Runtime rt(RuntimeOptions{.workers = 2});
  rt.Run([] {});
  EXPECT_GE(rt.external_placements(), 1u);
}

}  // namespace
}  // namespace skyloft
