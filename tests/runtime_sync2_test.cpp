// Tests for the second wave of host-runtime primitives: SleepFor, and Join,
// UthreadMutex and UthreadCondVar under spurious wakeups.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <vector>

#include "src/runtime/sync.h"
#include "src/runtime/uthread.h"

namespace skyloft {
namespace {

TEST(SleepTest, SleepsAtLeastRequested) {
  Runtime rt(RuntimeOptions{.workers = 1});
  std::chrono::steady_clock::duration slept{};
  rt.Run([&] {
    const auto start = std::chrono::steady_clock::now();
    Runtime::SleepFor(2000);  // 2 ms
    slept = std::chrono::steady_clock::now() - start;
  });
  EXPECT_GE(std::chrono::duration_cast<std::chrono::microseconds>(slept).count(), 2000);
}

TEST(SleepTest, OthersRunWhileSleeping) {
  Runtime rt(RuntimeOptions{.workers = 1});
  std::atomic<int> progress{0};
  rt.Run([&] {
    UThread* worker_thread = Runtime::Spawn([&] {
      for (int i = 0; i < 100; i++) {
        progress.fetch_add(1);
        Runtime::Yield();
      }
    });
    Runtime::SleepFor(3000);
    EXPECT_EQ(progress.load(), 100) << "the worker must have run during the sleep";
    Runtime::Join(worker_thread);
  });
}

TEST(SleepTest, ManySleepersWakeInOrder) {
  // One worker: with idle-first external placement, woken sleepers on
  // multiple workers may finish their post-sleep code in any order; a single
  // FIFO queue makes completion order == wake order == deadline order.
  Runtime rt(RuntimeOptions{.workers = 1});
  std::mutex order_mu;
  std::vector<int> order;
  rt.Run([&] {
    std::vector<UThread*> sleepers;
    for (int i = 3; i >= 1; i--) {  // longest sleeper spawned first
      sleepers.push_back(Runtime::Spawn([&, i] {
        Runtime::SleepFor(static_cast<std::int64_t>(i) * 3000);
        std::lock_guard<std::mutex> lock(order_mu);
        order.push_back(i);
      }));
    }
    for (UThread* s : sleepers) {
      Runtime::Join(s);
    }
  });
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(JoinTest, SpuriousWakesLinkJoinerOnce) {
  // Park may return spuriously, and Join loops until its target releases
  // it. Each spurious wake must re-park, not link the joiner again: a
  // duplicate entry on the target's join word costs a duplicate Unpark at
  // exit, i.e. a stale park token for whatever the joiner parks on next,
  // and a cycle in the joiner stack. One cooperative worker, so the main
  // uthread can walk the stack without racing its writers.
  constexpr int kSpuriousWakes = 16;
  Runtime rt(RuntimeOptions{.workers = 1});
  std::atomic<bool> release{false};
  std::size_t links = 0;
  rt.Run([&] {
    UThread* target = Runtime::Spawn([&] {
      while (!release.load(std::memory_order_acquire)) {
        Runtime::Yield();
      }
    });
    UThread* joiner = Runtime::Spawn([target] { Runtime::Join(target); });
    const auto await_parked = [joiner] {
      while (joiner->park.load(std::memory_order_acquire) != UThread::kParkParked) {
        Runtime::Yield();
      }
    };
    for (int i = 0; i < kSpuriousWakes; i++) {
      await_parked();
      Runtime::Unpark(joiner);
    }
    await_parked();
    // The stack ends at null while the target runs; a relinked joiner would
    // make it a cycle, so the walk is bounded.
    UThread* entry = target->joiners.load(std::memory_order_acquire);
    for (int steps = 0; entry != nullptr && steps <= kSpuriousWakes; steps++) {
      links += entry == joiner ? 1 : 0;
      entry = entry->join_next.load(std::memory_order_relaxed);
    }
    release.store(true, std::memory_order_release);
    Runtime::Join(joiner);
  });
  EXPECT_EQ(links, 1u);
}

TEST(MutexTest, StaleTokenDoesNotRelinkWaiter) {
  // A stale unpark token makes the waiter's Park return while it is still
  // linked behind the holder. Lock must park again, never push the linked
  // node a second time (that aborts in the intrusive list).
  Runtime rt(RuntimeOptions{.workers = 1});
  bool locked = false;
  rt.Run([&] {
    UthreadMutex mutex;
    mutex.Lock();
    UThread* waiter = Runtime::Spawn([&] {
      Runtime::Unpark(Runtime::Current());  // leaves a pending token
      mutex.Lock();
      locked = true;
      mutex.Unlock();
    });
    for (int i = 0; i < 10; i++) {
      Runtime::Yield();
    }
    mutex.Unlock();
    Runtime::Join(waiter);
  });
  EXPECT_TRUE(locked);
}

TEST(CondVarTest, StaleTokenDoesNotEndWait) {
  // A stale unpark token makes Park return at once. Wait must keep parking
  // until a Signal unlinks its waiter: returning early leaves the waiter
  // linked in a dead frame for the Signal to touch.
  Runtime rt(RuntimeOptions{.workers = 1});
  bool signalled_at_return = false;
  rt.Run([&] {
    UthreadMutex mutex;
    UthreadCondVar cond;
    bool signalled = false;
    mutex.Lock();
    UThread* signaller = Runtime::Spawn([&] {
      mutex.Lock();
      signalled = true;
      cond.Signal();
      mutex.Unlock();
    });
    Runtime::Unpark(Runtime::Current());  // leaves a pending token
    cond.Wait(&mutex);
    signalled_at_return = signalled;
    mutex.Unlock();
    Runtime::Join(signaller);
  });
  EXPECT_TRUE(signalled_at_return);
}

}  // namespace
}  // namespace skyloft
