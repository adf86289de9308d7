// Direct unit tests of the scheduling policies against the Table 2
// operations interface, independent of any engine.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/libos/task.h"
#include "src/sched/policy.h"
#include "src/policies/cfs.h"
#include "src/policies/eevdf.h"
#include "src/policies/round_robin.h"
#include "src/policies/shinjuku.h"
#include "src/policies/work_stealing.h"

namespace skyloft {
namespace {

class FakeView : public EngineView {
 public:
  explicit FakeView(int workers) : workers_(workers) {}
  TimeNs Now() const override { return now; }
  int NumWorkers() const override { return workers_; }
  CoreId WorkerCore(int index) const override { return index; }
  bool IsWorkerIdle(int index) const override { return true; }
  TimeNs now = 0;

 private:
  int workers_;
};

std::unique_ptr<Task> MakeTask(std::uint64_t id) {
  auto task = std::make_unique<Task>();
  task->id = id;
  task->state = TaskState::kRunnable;
  return task;
}

// ---- Round Robin ----

class RoundRobinTest : public ::testing::Test {
 protected:
  RoundRobinTest() : view_(2), policy_(Micros(50)) { policy_.SchedInit(&view_); }
  FakeView view_;
  RoundRobinPolicy policy_;
};

TEST_F(RoundRobinTest, FifoPerWorker) {
  auto a = MakeTask(1);
  auto b = MakeTask(2);
  policy_.TaskInit(a.get());
  policy_.TaskInit(b.get());
  policy_.TaskEnqueue(a.get(), kEnqueueNew, 0);
  policy_.TaskEnqueue(b.get(), kEnqueueNew, 0);
  EXPECT_EQ(policy_.TaskDequeue(0), a.get());
  EXPECT_EQ(policy_.TaskDequeue(0), b.get());
  EXPECT_EQ(policy_.TaskDequeue(0), nullptr);
}

TEST_F(RoundRobinTest, HintlessPlacementRoundRobins) {
  auto a = MakeTask(1);
  auto b = MakeTask(2);
  policy_.TaskEnqueue(a.get(), kEnqueueNew, -1);
  policy_.TaskEnqueue(b.get(), kEnqueueNew, -1);
  // One task per queue.
  EXPECT_NE(policy_.TaskDequeue(0), nullptr);
  EXPECT_NE(policy_.TaskDequeue(1), nullptr);
}

TEST_F(RoundRobinTest, NoPreemptBeforeSliceExpires) {
  auto a = MakeTask(1);
  auto b = MakeTask(2);
  policy_.TaskInit(a.get());
  policy_.TaskEnqueue(a.get(), kEnqueueNew, 0);
  SchedItem* current = policy_.TaskDequeue(0);
  policy_.TaskEnqueue(b.get(), kEnqueueNew, 0);  // someone waiting
  EXPECT_FALSE(policy_.SchedTimerTick(0, current, Micros(20)));
  EXPECT_FALSE(policy_.SchedTimerTick(0, current, Micros(20)));
  EXPECT_TRUE(policy_.SchedTimerTick(0, current, Micros(20)));  // 60us > 50us
}

TEST_F(RoundRobinTest, NoPreemptWithEmptyQueue) {
  auto a = MakeTask(1);
  policy_.TaskInit(a.get());
  policy_.TaskEnqueue(a.get(), kEnqueueNew, 0);
  SchedItem* current = policy_.TaskDequeue(0);
  EXPECT_FALSE(policy_.SchedTimerTick(0, current, Micros(500)))
      << "round-robin to an empty queue is pure overhead";
}

TEST_F(RoundRobinTest, SliceResetsOnDequeue) {
  auto a = MakeTask(1);
  auto b = MakeTask(2);
  policy_.TaskInit(a.get());
  policy_.TaskEnqueue(a.get(), kEnqueueNew, 0);
  SchedItem* current = policy_.TaskDequeue(0);
  policy_.TaskEnqueue(b.get(), kEnqueueNew, 0);
  EXPECT_TRUE(policy_.SchedTimerTick(0, current, Micros(60)));
  policy_.TaskEnqueue(current, kEnqueuePreempted, 0);
  // b runs, then a is dequeued again: its slice must restart.
  EXPECT_EQ(policy_.TaskDequeue(0), b.get());
  policy_.TaskEnqueue(b.get(), kEnqueuePreempted, 0);
  EXPECT_EQ(policy_.TaskDequeue(0), a.get());
  EXPECT_FALSE(policy_.SchedTimerTick(0, a.get(), Micros(20)));
}

TEST_F(RoundRobinTest, InfiniteSliceNeverPreempts) {
  RoundRobinPolicy fifo(kInfiniteSlice);
  FakeView view(1);
  fifo.SchedInit(&view);
  auto a = MakeTask(1);
  auto b = MakeTask(2);
  fifo.TaskInit(a.get());
  fifo.TaskEnqueue(a.get(), kEnqueueNew, 0);
  SchedItem* current = fifo.TaskDequeue(0);
  fifo.TaskEnqueue(b.get(), kEnqueueNew, 0);
  EXPECT_FALSE(fifo.SchedTimerTick(0, current, Millis(100)));
}

TEST_F(RoundRobinTest, BalanceStealsFromLoadedQueue) {
  auto a = MakeTask(1);
  auto b = MakeTask(2);
  policy_.TaskEnqueue(a.get(), kEnqueueNew, 1);
  policy_.TaskEnqueue(b.get(), kEnqueueNew, 1);
  EXPECT_EQ(policy_.TaskDequeue(0), nullptr);
  policy_.SchedBalance(0);
  EXPECT_NE(policy_.TaskDequeue(0), nullptr);
  EXPECT_EQ(policy_.QueuedTasks(), 1u);
}

// ---- CFS ----

class CfsTest : public ::testing::Test {
 protected:
  CfsTest() : view_(2), policy_(CfsParams{Micros(12) + 500, Micros(50)}) {
    policy_.SchedInit(&view_);
  }
  FakeView view_;
  CfsPolicy policy_;
};

TEST_F(CfsTest, PicksLowestVruntime) {
  auto a = MakeTask(1);
  auto b = MakeTask(2);
  policy_.TaskInit(a.get());
  policy_.TaskInit(b.get());
  policy_.TaskEnqueue(a.get(), kEnqueueNew, 0);
  SchedItem* current = policy_.TaskDequeue(0);
  // Run a for a while; its vruntime grows.
  policy_.SchedTimerTick(0, current, Micros(100));
  policy_.TaskEnqueue(current, kEnqueuePreempted, 0);
  policy_.TaskEnqueue(b.get(), kEnqueueNew, 0);
  // Fresh b (sleeper-placed near min_vruntime) beats a's accumulated time.
  EXPECT_EQ(policy_.TaskDequeue(0), b.get());
}

TEST_F(CfsTest, PreemptsAfterSliceWhenBehind) {
  auto a = MakeTask(1);
  auto b = MakeTask(2);
  policy_.TaskInit(a.get());
  policy_.TaskInit(b.get());
  policy_.TaskEnqueue(a.get(), kEnqueueNew, 0);
  SchedItem* current = policy_.TaskDequeue(0);
  policy_.TaskEnqueue(b.get(), kEnqueueNew, 0);
  // Before a slice elapses: no preemption.
  EXPECT_FALSE(policy_.SchedTimerTick(0, current, Micros(10)));
  // After enough runtime the waiting task's lower vruntime wins.
  EXPECT_TRUE(policy_.SchedTimerTick(0, current, Micros(100)));
}

TEST_F(CfsTest, NoPreemptionWhenAlone) {
  auto a = MakeTask(1);
  policy_.TaskInit(a.get());
  policy_.TaskEnqueue(a.get(), kEnqueueNew, 0);
  SchedItem* current = policy_.TaskDequeue(0);
  EXPECT_FALSE(policy_.SchedTimerTick(0, current, Millis(10)));
}

TEST_F(CfsTest, SleeperCompensationBoundsVruntime) {
  // A task that slept a long time must not starve everyone else forever:
  // placement is bounded below relative to min_vruntime.
  auto hog = MakeTask(1);
  auto sleeper = MakeTask(2);
  policy_.TaskInit(hog.get());
  policy_.TaskInit(sleeper.get());
  policy_.TaskEnqueue(hog.get(), kEnqueueNew, 0);
  SchedItem* current = policy_.TaskDequeue(0);
  for (int i = 0; i < 100; i++) {
    policy_.SchedTimerTick(0, current, Micros(50));
  }
  policy_.TaskEnqueue(current, kEnqueuePreempted, 0);
  policy_.TaskEnqueue(sleeper.get(), kEnqueueWakeup, 0);
  // Sleeper runs first (compensation)...
  ASSERT_EQ(policy_.TaskDequeue(0), sleeper.get());
  // ...but only with a bounded head start: after one latency period it gets
  // preempted in favor of the hog rather than monopolizing the core.
  bool preempted = false;
  for (int i = 0; i < 10 && !preempted; i++) {
    preempted = policy_.SchedTimerTick(0, sleeper.get(), Micros(50));
  }
  EXPECT_TRUE(preempted);
}

TEST_F(CfsTest, BalanceRenormalizesVruntime) {
  auto a = MakeTask(1);
  policy_.TaskInit(a.get());
  policy_.TaskEnqueue(a.get(), kEnqueueNew, 1);
  policy_.SchedBalance(0);
  EXPECT_EQ(policy_.TaskDequeue(0), a.get());
  EXPECT_EQ(policy_.QueuedTasks(), 0u);
}

// ---- EEVDF ----

class EevdfTest : public ::testing::Test {
 protected:
  EevdfTest() : view_(2), policy_(EevdfParams{Micros(12) + 500}) { policy_.SchedInit(&view_); }
  FakeView view_;
  EevdfPolicy policy_;
};

TEST_F(EevdfTest, JoinsWithZeroLag) {
  auto a = MakeTask(1);
  policy_.TaskInit(a.get());
  policy_.TaskEnqueue(a.get(), kEnqueueNew, 0);
  EXPECT_EQ(policy_.LagOf(a.get(), 0), 0);
}

TEST_F(EevdfTest, EarliestDeadlineAmongEligibleWins) {
  // a runs while c waits (so V advances at half the wall rate); then a fresh
  // b joins. Dispatch order must be: c (earliest deadline), b, then a (whose
  // vruntime ran ahead of V — negative lag — making it ineligible).
  auto a = MakeTask(1);
  auto b = MakeTask(2);
  auto c = MakeTask(3);
  policy_.TaskInit(a.get());
  policy_.TaskInit(b.get());
  policy_.TaskInit(c.get());
  policy_.TaskEnqueue(a.get(), kEnqueueNew, 0);
  SchedItem* current = policy_.TaskDequeue(0);
  policy_.TaskEnqueue(c.get(), kEnqueueNew, 0);
  policy_.SchedTimerTick(0, current, Micros(50));  // a: v=50us; V=25us
  policy_.TaskEnqueue(current, kEnqueuePreempted, 0);
  policy_.TaskEnqueue(b.get(), kEnqueueNew, 0);  // b: v=25us, d=37.5us
  EXPECT_EQ(policy_.TaskDequeue(0), c.get());
  EXPECT_EQ(policy_.TaskDequeue(0), b.get());
  EXPECT_EQ(policy_.TaskDequeue(0), a.get());
}

TEST_F(EevdfTest, SliceExhaustionPushesDeadline) {
  auto a = MakeTask(1);
  auto b = MakeTask(2);
  policy_.TaskInit(a.get());
  policy_.TaskInit(b.get());
  policy_.TaskEnqueue(a.get(), kEnqueueNew, 0);
  SchedItem* current = policy_.TaskDequeue(0);
  policy_.TaskEnqueue(b.get(), kEnqueueNew, 0);
  // Run past the base slice: must preempt in favor of the eligible waiter.
  EXPECT_TRUE(policy_.SchedTimerTick(0, current, Micros(20)));
}

TEST_F(EevdfTest, NoPreemptWhenAlone) {
  auto a = MakeTask(1);
  policy_.TaskInit(a.get());
  policy_.TaskEnqueue(a.get(), kEnqueueNew, 0);
  SchedItem* current = policy_.TaskDequeue(0);
  EXPECT_FALSE(policy_.SchedTimerTick(0, current, Millis(5)));
}

TEST_F(EevdfTest, FairnessOverManySlices) {
  // Two CPU-bound tasks sharing one queue must receive equal virtual time.
  auto a = MakeTask(1);
  auto b = MakeTask(2);
  policy_.TaskInit(a.get());
  policy_.TaskInit(b.get());
  policy_.TaskEnqueue(a.get(), kEnqueueNew, 0);
  policy_.TaskEnqueue(b.get(), kEnqueueNew, 0);
  DurationNs ran_a = 0;
  DurationNs ran_b = 0;
  SchedItem* current = policy_.TaskDequeue(0);
  for (int tick = 0; tick < 1000; tick++) {
    const DurationNs step = Micros(5);
    (current == a.get() ? ran_a : ran_b) += step;
    if (policy_.SchedTimerTick(0, current, step)) {
      policy_.TaskEnqueue(current, kEnqueuePreempted, 0);
      current = policy_.TaskDequeue(0);
    }
  }
  const double ratio = static_cast<double>(ran_a) / static_cast<double>(ran_b);
  EXPECT_NEAR(ratio, 1.0, 0.1);
}

TEST_F(EevdfTest, DequeueFallsBackWhenNoneEligible) {
  // A preempted task can carry negative lag (vruntime > V); it must still be
  // dispatchable when it is the only task.
  auto a = MakeTask(1);
  policy_.TaskInit(a.get());
  policy_.TaskEnqueue(a.get(), kEnqueueNew, 0);
  SchedItem* current = policy_.TaskDequeue(0);
  policy_.SchedTimerTick(0, current, Micros(100));  // vruntime >> V
  policy_.TaskEnqueue(current, kEnqueuePreempted, 0);
  EXPECT_EQ(policy_.TaskDequeue(0), a.get());
}

// ---- Work stealing ----

class WorkStealingTest : public ::testing::Test {
 protected:
  WorkStealingTest() : view_(4), policy_(WorkStealingParams{Micros(5), 1}) {
    policy_.SchedInit(&view_);
  }
  FakeView view_;
  WorkStealingPolicy policy_;
};

TEST_F(WorkStealingTest, LocalFifo) {
  auto a = MakeTask(1);
  auto b = MakeTask(2);
  policy_.TaskInit(a.get());
  policy_.TaskInit(b.get());
  policy_.TaskEnqueue(a.get(), kEnqueueNew, 2);
  policy_.TaskEnqueue(b.get(), kEnqueueNew, 2);
  EXPECT_EQ(policy_.TaskDequeue(2), a.get());
  EXPECT_EQ(policy_.TaskDequeue(2), b.get());
}

TEST_F(WorkStealingTest, StealsHalfTheVictimQueue) {
  std::vector<std::unique_ptr<Task>> tasks;
  for (int i = 0; i < 8; i++) {
    tasks.push_back(MakeTask(static_cast<std::uint64_t>(i)));
    policy_.TaskInit(tasks.back().get());
    policy_.TaskEnqueue(tasks.back().get(), kEnqueueNew, 3);
  }
  policy_.SchedBalance(0);
  EXPECT_EQ(policy_.steals(), 4u);
  int local = 0;
  while (policy_.TaskDequeue(0) != nullptr) {
    local++;
  }
  EXPECT_EQ(local, 4);
}

TEST_F(WorkStealingTest, BalanceWithNoWorkIsNoop) {
  policy_.SchedBalance(0);
  EXPECT_EQ(policy_.steals(), 0u);
  EXPECT_EQ(policy_.TaskDequeue(0), nullptr);
}

TEST_F(WorkStealingTest, QuantumPreemptsOnlyWithBacklog) {
  auto a = MakeTask(1);
  auto b = MakeTask(2);
  policy_.TaskInit(a.get());
  policy_.TaskInit(b.get());
  policy_.TaskEnqueue(a.get(), kEnqueueNew, 0);
  SchedItem* current = policy_.TaskDequeue(0);
  // No backlog: run past the quantum freely.
  EXPECT_FALSE(policy_.SchedTimerTick(0, current, Micros(100)));
  // With backlog anywhere, the next tick preempts.
  policy_.TaskEnqueue(b.get(), kEnqueueNew, 3);
  EXPECT_TRUE(policy_.SchedTimerTick(0, current, Micros(5)));
}

TEST_F(WorkStealingTest, InfiniteQuantumNeverPreempts) {
  WorkStealingPolicy shenango(WorkStealingParams{kInfiniteSliceWs, 1});
  FakeView view(2);
  shenango.SchedInit(&view);
  auto a = MakeTask(1);
  auto b = MakeTask(2);
  shenango.TaskInit(a.get());
  shenango.TaskEnqueue(a.get(), kEnqueueNew, 0);
  SchedItem* current = shenango.TaskDequeue(0);
  shenango.TaskEnqueue(b.get(), kEnqueueNew, 0);
  EXPECT_FALSE(shenango.SchedTimerTick(0, current, Millis(100)));
}

// ---- Shinjuku ----

TEST(ShinjukuTest, GlobalFifoQueue) {
  ShinjukuPolicy policy;
  auto a = MakeTask(1);
  auto b = MakeTask(2);
  policy.TaskEnqueue(a.get(), kEnqueueNew, -1);
  policy.TaskEnqueue(b.get(), kEnqueueNew, -1);
  EXPECT_EQ(policy.QueuedTasks(), 2u);
  EXPECT_EQ(policy.TaskDequeue(-1), a.get());
  EXPECT_EQ(policy.TaskDequeue(-1), b.get());
  EXPECT_EQ(policy.TaskDequeue(-1), nullptr);
}

TEST(ShinjukuTest, PreemptedGoesToTail) {
  ShinjukuPolicy policy;
  auto a = MakeTask(1);
  auto b = MakeTask(2);
  policy.TaskEnqueue(a.get(), kEnqueueNew, -1);
  SchedItem* current = policy.TaskDequeue(-1);
  // Quantum expiry is the centralized engine's decision, never the tick's.
  EXPECT_FALSE(policy.SchedTimerTick(0, current, Millis(1)));
  policy.TaskEnqueue(b.get(), kEnqueueNew, -1);
  policy.TaskEnqueue(current, kEnqueuePreempted, -1);  // processor sharing
  EXPECT_EQ(policy.TaskDequeue(-1), b.get());
  EXPECT_EQ(policy.TaskDequeue(-1), a.get());
}

}  // namespace
}  // namespace skyloft
