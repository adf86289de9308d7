// Tests for the second wave of host-runtime primitives: SleepFor, Join,
// UthreadMutex and UthreadCondVar under spurious wakeups, counting
// semaphore, and the bounded channel.
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
  // Park may return spuriously, and Join loops on the target's state. Each
  // spurious wake must re-park, not link the joiner again: a duplicate entry
  // in `joiners` costs a duplicate Unpark at exit, i.e. a stale park token
  // for whatever the joiner parks on next. One cooperative worker, so the
  // main uthread can read `joiners` without racing its writers.
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
      while (joiner->state.load(std::memory_order_acquire) != UthreadState::kBlocked) {
        Runtime::Yield();
      }
    };
    for (int i = 0; i < kSpuriousWakes; i++) {
      await_parked();
      Runtime::Unpark(joiner);
    }
    await_parked();
    for (const UThread* j : target->joiners) {
      links += j == joiner ? 1 : 0;
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

TEST(SemaphoreTest, InitialPermits) {
  Runtime rt(RuntimeOptions{.workers = 1});
  rt.Run([&] {
    UthreadSemaphore sem(2);
    EXPECT_TRUE(sem.TryAcquire());
    EXPECT_TRUE(sem.TryAcquire());
    EXPECT_FALSE(sem.TryAcquire());
    sem.Release();
    EXPECT_TRUE(sem.TryAcquire());
  });
}

TEST(SemaphoreTest, BoundsConcurrency) {
  Runtime rt(RuntimeOptions{.workers = 4});
  UthreadSemaphore sem(3);
  std::atomic<int> inside{0};
  std::atomic<int> max_inside{0};
  rt.Run([&] {
    std::vector<UThread*> threads;
    for (int i = 0; i < 20; i++) {
      threads.push_back(Runtime::Spawn([&] {
        sem.Acquire();
        const int now_inside = inside.fetch_add(1) + 1;
        int expected = max_inside.load();
        while (now_inside > expected && !max_inside.compare_exchange_weak(expected, now_inside)) {
        }
        for (int y = 0; y < 5; y++) {
          Runtime::Yield();
        }
        inside.fetch_sub(1);
        sem.Release();
      }));
    }
    for (UThread* t : threads) {
      Runtime::Join(t);
    }
  });
  EXPECT_LE(max_inside.load(), 3);
  EXPECT_GE(max_inside.load(), 1);
  EXPECT_EQ(inside.load(), 0);
}

TEST(ChannelTest, SendReceiveOrder) {
  Runtime rt(RuntimeOptions{.workers = 1});
  rt.Run([&] {
    UthreadChannel<int> channel(4);
    UThread* producer = Runtime::Spawn([&] {
      for (int i = 0; i < 100; i++) {
        EXPECT_TRUE(channel.Send(i));
      }
      channel.Close();
    });
    int expected = 0;
    int value;
    while (channel.Receive(&value)) {
      EXPECT_EQ(value, expected++);
    }
    EXPECT_EQ(expected, 100);
    Runtime::Join(producer);
  });
}

TEST(ChannelTest, BackpressureBlocksSender) {
  Runtime rt(RuntimeOptions{.workers = 1});
  rt.Run([&] {
    UthreadChannel<int> channel(2);
    int sent = 0;
    UThread* producer = Runtime::Spawn([&] {
      for (int i = 0; i < 10; i++) {
        channel.Send(i);
        sent++;
      }
    });
    for (int i = 0; i < 20; i++) {
      Runtime::Yield();
    }
    EXPECT_LE(sent, 3) << "producer must stall at capacity";
    int value;
    for (int i = 0; i < 10; i++) {
      EXPECT_TRUE(channel.Receive(&value));
      EXPECT_EQ(value, i);
    }
    Runtime::Join(producer);
    EXPECT_EQ(sent, 10);
  });
}

TEST(ChannelTest, CloseUnblocksReceivers) {
  Runtime rt(RuntimeOptions{.workers = 2});
  std::atomic<int> finished{0};
  rt.Run([&] {
    UthreadChannel<int> channel(1);
    std::vector<UThread*> receivers;
    for (int i = 0; i < 4; i++) {
      receivers.push_back(Runtime::Spawn([&] {
        int value;
        while (channel.Receive(&value)) {
        }
        finished.fetch_add(1);
      }));
    }
    for (int i = 0; i < 10; i++) {
      Runtime::Yield();
    }
    channel.Close();
    for (UThread* r : receivers) {
      Runtime::Join(r);
    }
  });
  EXPECT_EQ(finished.load(), 4);
}

TEST(ChannelTest, SendAfterCloseFails) {
  Runtime rt(RuntimeOptions{.workers = 1});
  rt.Run([&] {
    UthreadChannel<int> channel(2);
    channel.Send(1);
    channel.Close();
    EXPECT_FALSE(channel.Send(2));
    int value = 0;
    EXPECT_TRUE(channel.Receive(&value)) << "close still drains buffered items";
    EXPECT_EQ(value, 1);
    EXPECT_FALSE(channel.Receive(&value));
  });
}

TEST(ChannelTest, MpmcPipelineAcrossWorkers) {
  Runtime rt(RuntimeOptions{.workers = 4});
  std::atomic<long long> sum{0};
  constexpr int kProducers = 4;
  constexpr int kItemsEach = 500;
  rt.Run([&] {
    UthreadChannel<int> channel(8);
    std::vector<UThread*> threads;
    std::atomic<int> producers_left{kProducers};
    for (int p = 0; p < kProducers; p++) {
      threads.push_back(Runtime::Spawn([&] {
        for (int i = 1; i <= kItemsEach; i++) {
          channel.Send(i);
        }
        if (producers_left.fetch_sub(1) == 1) {
          channel.Close();
        }
      }));
    }
    for (int c = 0; c < 3; c++) {
      threads.push_back(Runtime::Spawn([&] {
        int value;
        while (channel.Receive(&value)) {
          sum.fetch_add(value);
        }
      }));
    }
    for (UThread* t : threads) {
      Runtime::Join(t);
    }
  });
  EXPECT_EQ(sum.load(),
            static_cast<long long>(kProducers) * kItemsEach * (kItemsEach + 1) / 2);
}

}  // namespace
}  // namespace skyloft
