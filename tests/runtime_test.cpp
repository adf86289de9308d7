// Tests for the host M:N user-level threading runtime: context switching,
// spawn/join, yield fairness, work stealing, park/unpark races, mutex and
// condition variable semantics, and signal-timer preemption.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/runtime/sync.h"
#include "src/runtime/uthread.h"

namespace skyloft {
namespace {

// Runs `body` and aborts the process if it has not returned within `limit`,
// so a runtime hang fails the test at once instead of at the ctest timeout.
void WithWatchdog(std::chrono::seconds limit, const char* what,
                  const std::function<void()>& body) {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  std::thread dog([&] {
    std::unique_lock<std::mutex> lock(mu);
    if (!cv.wait_for(lock, limit, [&] { return done; })) {
      std::fprintf(stderr, "watchdog: %s did not finish within %llds\n", what,
                   static_cast<long long>(limit.count()));
      std::abort();
    }
  });
  body();
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_one();
  dog.join();
}

std::int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

TEST(RuntimeTest, MainFunctionRuns) {
  Runtime rt(RuntimeOptions{.workers = 1});
  bool ran = false;
  rt.Run([&] { ran = true; });
  EXPECT_TRUE(ran);
}

TEST(RuntimeTest, RunTwiceOnSameRuntime) {
  Runtime rt(RuntimeOptions{.workers = 1});
  int runs = 0;
  rt.Run([&] { runs++; });
  rt.Run([&] { runs++; });
  EXPECT_EQ(runs, 2);
}

TEST(RuntimeTest, SpawnAndJoin) {
  Runtime rt(RuntimeOptions{.workers = 1});
  int value = 0;
  rt.Run([&] {
    UThread* child = Runtime::Spawn([&] { value = 42; });
    Runtime::Join(child);
    EXPECT_EQ(value, 42);
  });
  EXPECT_EQ(value, 42);
}

TEST(RuntimeTest, SpawnManySequential) {
  Runtime rt(RuntimeOptions{.workers = 1});
  std::atomic<int> count{0};
  rt.Run([&] {
    std::vector<UThread*> children;
    for (int i = 0; i < 1000; i++) {
      children.push_back(Runtime::Spawn([&] { count.fetch_add(1); }));
    }
    for (UThread* c : children) {
      Runtime::Join(c);
    }
  });
  EXPECT_EQ(count.load(), 1000);
}

TEST(RuntimeTest, YieldInterleavesThreads) {
  Runtime rt(RuntimeOptions{.workers = 1});
  std::vector<int> order;
  rt.Run([&] {
    UThread* a = Runtime::Spawn([&] {
      for (int i = 0; i < 3; i++) {
        order.push_back(1);
        Runtime::Yield();
      }
    });
    UThread* b = Runtime::Spawn([&] {
      for (int i = 0; i < 3; i++) {
        order.push_back(2);
        Runtime::Yield();
      }
    });
    Runtime::Join(a);
    Runtime::Join(b);
  });
  // On one worker with FIFO queues, the two threads strictly alternate.
  ASSERT_EQ(order.size(), 6u);
  for (std::size_t i = 0; i + 2 < order.size(); i++) {
    EXPECT_NE(order[i], order[i + 1]) << "yield must round-robin";
  }
}

TEST(RuntimeTest, NestedSpawn) {
  Runtime rt(RuntimeOptions{.workers = 1});
  int depth_reached = 0;
  rt.Run([&] {
    std::function<void(int)> recurse = [&](int depth) {
      depth_reached = std::max(depth_reached, depth);
      if (depth < 10) {
        UThread* child = Runtime::Spawn([&recurse, depth] { recurse(depth + 1); });
        Runtime::Join(child);
      }
    };
    recurse(0);
  });
  EXPECT_EQ(depth_reached, 10);
}

TEST(RuntimeTest, JoinAlreadyFinishedThread) {
  Runtime rt(RuntimeOptions{.workers = 1});
  rt.Run([&] {
    UThread* child = Runtime::Spawn([] {});
    // Let the child run to completion first.
    for (int i = 0; i < 10; i++) {
      Runtime::Yield();
    }
    Runtime::Join(child);  // must not hang
  });
}

TEST(RuntimeTest, MultiWorkerSpawnStorm) {
  Runtime rt(RuntimeOptions{.workers = 4});
  std::atomic<int> count{0};
  rt.Run([&] {
    std::vector<UThread*> children;
    for (int i = 0; i < 2000; i++) {
      children.push_back(Runtime::Spawn([&] {
        count.fetch_add(1);
        Runtime::Yield();
        count.fetch_add(1);
      }));
    }
    for (UThread* c : children) {
      Runtime::Join(c);
    }
  });
  EXPECT_EQ(count.load(), 4000);
}

TEST(RuntimeTest, WorkStealingSpreadsLoad) {
  Runtime rt(RuntimeOptions{.workers = 4});
  std::atomic<int> count{0};
  std::atomic<bool> spinner_taken{false};
  rt.Run([&] {
    std::vector<UThread*> children;
    for (int i = 0; i < 200; i++) {
      children.push_back(Runtime::Spawn([&] {
        // The first child to run holds its worker without yielding until a
        // steal lands, so the children queued behind it on that worker can
        // only run on a thief. The deadline turns a missing steal into a
        // failed assertion instead of a hang.
        if (!spinner_taken.exchange(true)) {
          const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
          while (rt.steals() == 0 && std::chrono::steady_clock::now() < deadline) {
          }
        }
        count.fetch_add(1);
      }));
    }
    for (UThread* c : children) {
      Runtime::Join(c);
    }
  });
  EXPECT_EQ(count.load(), 200);
  EXPECT_GT(rt.steals(), 0u) << "idle workers should have stolen work";
}

TEST(RuntimeTest, StackReuseAfterExit) {
  // Recycling uthreads must not corrupt state: run several generations.
  Runtime rt(RuntimeOptions{.workers = 2});
  std::atomic<int> count{0};
  rt.Run([&] {
    for (int gen = 0; gen < 20; gen++) {
      std::vector<UThread*> children;
      for (int i = 0; i < 50; i++) {
        children.push_back(Runtime::Spawn([&] {
          volatile char buf[2048];  // touch a chunk of stack
          buf[0] = 1;
          buf[2047] = 2;
          count.fetch_add(buf[0] + buf[2047]);  // 3 per child if stacks are intact
        }));
      }
      for (UThread* c : children) {
        Runtime::Join(c);
      }
    }
  });
  EXPECT_EQ(count.load(), 3000);  // 20 generations x 50 children x 3
}

// ---- Park / Unpark and the direct handoff ----

// Two uthreads Unpark one target each time it is about to park. When the
// scheduler stack completed a park, it could requeue the target for a
// pending unpark while a second Unpark also scheduled it, and two workers
// ran one stack. The target's running flag catches a second copy of it;
// the runtime's switch-in check (and the mutex driver's intrusive list)
// abort on a uthread queued twice.
void DoubleUnparkWhileParking(HostSchedOptions sched) {
  constexpr int kRounds = 10'000;
  RuntimeOptions options{.workers = 4};
  options.sched = sched;
  Runtime rt(options);
  std::atomic<bool> running{false};
  std::atomic<int> overlaps{0};
  std::atomic<int> round_started{0};
  std::atomic<bool> done{false};
  std::atomic<int> unparkers_stopped{0};
  WithWatchdog(std::chrono::seconds(120), "double-unpark rounds", [&] {
    rt.Run([&] {
      UThread* target = Runtime::Spawn([&] {
        for (int round = 1; round <= kRounds; round++) {
          if (running.exchange(true)) {
            overlaps.fetch_add(1);
          }
          running.store(false);
          round_started.store(round);  // both unparkers now race this Park
          Runtime::Park();
        }
        done.store(true);
        // Stay alive until no Unpark of this uthread can still be in flight.
        while (unparkers_stopped.load() < 2) {
          Runtime::Yield();
        }
      });
      std::vector<UThread*> unparkers;
      for (int i = 0; i < 2; i++) {
        unparkers.push_back(Runtime::Spawn([&] {
          int seen = 0;
          while (!done.load()) {
            const int round = round_started.load();
            if (round != seen) {
              seen = round;
              Runtime::Unpark(target);
            }
            Runtime::Yield();  // drains this worker's mailbox, where the target may sit
          }
          unparkers_stopped.fetch_add(1);
        }));
      }
      Runtime::Join(target);
      for (UThread* u : unparkers) {
        Runtime::Join(u);
      }
    });
  });
  EXPECT_EQ(overlaps.load(), 0) << "the target ran on two workers at once";
}

TEST(RuntimeParkTest, DoubleUnparkWhileParkingLockFree) {
  DoubleUnparkWhileParking(HostSchedOptions{});
}

TEST(RuntimeParkTest, DoubleUnparkWhileParkingLocked) {
  HostSchedOptions sched;
  sched.force_locked = true;
  DoubleUnparkWhileParking(sched);
}

// Cross-worker Park/Unpark chains: tokens circulate around a ring of
// uthreads on 4 workers, and every pass Unparks the successor, parked or
// not. An Unpark that lands while the successor is still switching out on
// another worker queues it here before it has left its stack; SwitchTo must
// wait for it rather than run a second copy on the live stack.
TEST(RuntimeParkTest, CrossWorkerHandoffChainsNeverShareAStack) {
  constexpr int kNodes = 8;
  constexpr int kTokens = 3;
  constexpr long kPasses = 200'000;
  struct Node {
    std::atomic<int> tokens{0};
    std::atomic<bool> running{false};
    UThread* thread = nullptr;
  };
  Node nodes[kNodes];
  std::atomic<long> passes{0};
  std::atomic<int> overlaps{0};
  std::atomic<bool> stop{false};
  std::atomic<int> acked{0};
  for (int t = 0; t < kTokens; t++) {
    nodes[t * 2].tokens.fetch_add(1);
  }
  Runtime rt(RuntimeOptions{.workers = 4});
  WithWatchdog(std::chrono::seconds(120), "cross-worker handoff chains", [&] {
    rt.Run([&] {
      for (int i = 0; i < kNodes; i++) {
        nodes[i].thread = Runtime::Spawn([&, i] {
          Node& me = nodes[i];
          Node& next = nodes[(i + 1) % kNodes];
          while (true) {
            if (me.running.exchange(true)) {
              overlaps.fetch_add(1);
            }
            if (stop.load()) {
              me.running.store(false);
              break;
            }
            while (me.tokens.load() > 0) {
              me.tokens.fetch_sub(1);
              next.tokens.fetch_add(1);
              Runtime::Unpark(next.thread);
              passes.fetch_add(1);
            }
            me.running.store(false);
            Runtime::Park();
          }
          // Once every node has seen `stop`, nobody Unparks anybody.
          acked.fetch_add(1);
          while (acked.load() < kNodes) {
            Runtime::Yield();
          }
        });
      }
      while (passes.load() < kPasses) {
        Runtime::Yield();
      }
      stop.store(true);
      for (Node& n : nodes) {
        Runtime::Unpark(n.thread);
      }
      for (Node& n : nodes) {
        Runtime::Join(n.thread);
      }
    });
  });
  EXPECT_EQ(overlaps.load(), 0) << "a uthread ran on two workers at once";
  int tokens = 0;
  for (Node& n : nodes) {
    tokens += n.tokens.load();
  }
  EXPECT_EQ(tokens, kTokens);
}

// Direct handoffs skip the scheduler loop, and with it the I/O engine poll
// between two uthread segments. Two uthreads ping-pong Park/Unpark forever
// on one worker while a third waits on a pipe that an outside thread
// writes: the handoff budget must still send the worker through its
// scheduler loop, so the reader wakes within 100 ms.
TEST(RuntimeParkTest, HandoffChainStillPollsIo) {
  Runtime rt(RuntimeOptions{.workers = 1, .io_engine = true});
  int pipefd[2];
  ASSERT_EQ(pipe(pipefd), 0);
  std::atomic<bool> reader_ready{false};
  std::atomic<long> pings{0};
  std::atomic<bool> stop{false};
  std::atomic<std::int64_t> wrote_ns{0};
  std::atomic<std::int64_t> woke_ns{0};

  std::thread outside([&] {
    while (!reader_ready.load() || pings.load() < 10'000) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    wrote_ns.store(SteadyNs());
    const char byte = 'x';
    ASSERT_EQ(write(pipefd[1], &byte, 1), 1);
    const std::int64_t give_up = wrote_ns.load() + 2'000'000'000;
    while (woke_ns.load() == 0 && SteadyNs() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    stop.store(true);
  });

  WithWatchdog(std::chrono::seconds(60), "ping-pong beside an I/O waiter", [&] {
    rt.Run([&] {
      IoEngine* engine = rt.io_engine(0);
      IoHandle* handle = engine->Register(pipefd[0]);
      ASSERT_NE(handle, nullptr);
      UThread* reader = Runtime::Spawn([&] {
        reader_ready.store(true);
        WaitForReadable(handle);
        woke_ns.store(SteadyNs());
        char buf[8];
        EXPECT_EQ(read(handle->fd, buf, sizeof(buf)), 1);
      });
      // Strict alternation on `turn`; each side Unparks the other and parks
      // until its turn comes back. One worker runs them, so whichever sees
      // `stop` first wakes the other before it exits.
      std::atomic<int> turn{0};
      std::atomic<bool> one_exited{false};
      UThread* players[2] = {nullptr, nullptr};
      std::atomic<int> spawned{0};
      for (int me = 0; me < 2; me++) {
        players[me] = Runtime::Spawn([&, me] {
          while (spawned.load() < 2) {
            Runtime::Yield();
          }
          UThread* other = players[1 - me];
          while (!stop.load()) {
            if (turn.load() != me) {
              Runtime::Park();
              continue;
            }
            pings.fetch_add(1);
            turn.store(1 - me);
            Runtime::Unpark(other);
          }
          if (!one_exited.exchange(true)) {
            Runtime::Unpark(other);
          }
        });
      }
      spawned.store(2);
      Runtime::Join(players[0]);
      Runtime::Join(players[1]);
      Runtime::Join(reader);
      engine->Deregister(handle);
    });
  });
  outside.join();
  close(pipefd[1]);
  ASSERT_NE(woke_ns.load(), 0) << "the reader never woke while the ping-pong ran";
  EXPECT_LT(woke_ns.load() - wrote_ns.load(), 100'000'000)
      << "the reader waited " << (woke_ns.load() - wrote_ns.load()) / 1'000'000
      << " ms behind a Park/Unpark ping-pong";
}

// ---- Mutex ----

TEST(RuntimeSyncTest, MutexMutualExclusion) {
  Runtime rt(RuntimeOptions{.workers = 4});
  UthreadMutex mutex;
  int counter = 0;  // deliberately unsynchronized except by the mutex
  rt.Run([&] {
    std::vector<UThread*> children;
    for (int i = 0; i < 8; i++) {
      children.push_back(Runtime::Spawn([&] {
        for (int j = 0; j < 1000; j++) {
          UthreadMutexGuard guard(&mutex);
          counter++;
        }
      }));
    }
    for (UThread* c : children) {
      Runtime::Join(c);
    }
  });
  EXPECT_EQ(counter, 8000);
}

TEST(RuntimeSyncTest, MutexTryLock) {
  Runtime rt(RuntimeOptions{.workers = 1});
  UthreadMutex mutex;
  rt.Run([&] {
    EXPECT_TRUE(mutex.TryLock());
    EXPECT_FALSE(mutex.TryLock());
    mutex.Unlock();
    EXPECT_TRUE(mutex.TryLock());
    mutex.Unlock();
  });
}

TEST(RuntimeSyncTest, MutexBlocksAndWakes) {
  Runtime rt(RuntimeOptions{.workers = 1});
  UthreadMutex mutex;
  std::vector<int> order;
  rt.Run([&] {
    mutex.Lock();
    UThread* child = Runtime::Spawn([&] {
      mutex.Lock();  // blocks until the main thread unlocks
      order.push_back(2);
      mutex.Unlock();
    });
    Runtime::Yield();  // let the child block on the mutex
    order.push_back(1);
    mutex.Unlock();
    Runtime::Join(child);
  });
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

// ---- Condition variable ----

TEST(RuntimeSyncTest, CondVarSignalWakesOne) {
  Runtime rt(RuntimeOptions{.workers = 1});
  UthreadMutex mutex;
  UthreadCondVar cv;
  bool ready = false;
  bool observed = false;
  rt.Run([&] {
    UThread* waiter = Runtime::Spawn([&] {
      mutex.Lock();
      while (!ready) {
        cv.Wait(&mutex);
      }
      observed = true;
      mutex.Unlock();
    });
    Runtime::Yield();  // waiter blocks on the cv
    mutex.Lock();
    ready = true;
    mutex.Unlock();
    cv.Signal();
    Runtime::Join(waiter);
  });
  EXPECT_TRUE(observed);
}

TEST(RuntimeSyncTest, CondVarBroadcastWakesAll) {
  Runtime rt(RuntimeOptions{.workers = 2});
  UthreadMutex mutex;
  UthreadCondVar cv;
  bool ready = false;
  std::atomic<int> woken{0};
  rt.Run([&] {
    std::vector<UThread*> waiters;
    for (int i = 0; i < 10; i++) {
      waiters.push_back(Runtime::Spawn([&] {
        mutex.Lock();
        while (!ready) {
          cv.Wait(&mutex);
        }
        mutex.Unlock();
        woken.fetch_add(1);
      }));
    }
    for (int i = 0; i < 20; i++) {
      Runtime::Yield();
    }
    mutex.Lock();
    ready = true;
    mutex.Unlock();
    cv.Broadcast();
    for (UThread* w : waiters) {
      Runtime::Join(w);
    }
  });
  EXPECT_EQ(woken.load(), 10);
}

TEST(RuntimeSyncTest, SignalWithNoWaitersIsNoop) {
  Runtime rt(RuntimeOptions{.workers = 1});
  UthreadCondVar cv;
  rt.Run([&] {
    cv.Signal();
    cv.Broadcast();
  });
}

// Producer/consumer pipeline across workers.
TEST(RuntimeSyncTest, ProducerConsumerPipeline) {
  Runtime rt(RuntimeOptions{.workers = 2});
  UthreadMutex mutex;
  UthreadCondVar not_empty;
  UthreadCondVar not_full;
  std::vector<int> queue;
  constexpr std::size_t kCap = 4;
  constexpr int kItems = 500;
  long long sum = 0;
  rt.Run([&] {
    UThread* producer = Runtime::Spawn([&] {
      for (int i = 1; i <= kItems; i++) {
        mutex.Lock();
        while (queue.size() >= kCap) {
          not_full.Wait(&mutex);
        }
        queue.push_back(i);
        mutex.Unlock();
        not_empty.Signal();
      }
    });
    UThread* consumer = Runtime::Spawn([&] {
      for (int i = 0; i < kItems; i++) {
        mutex.Lock();
        while (queue.empty()) {
          not_empty.Wait(&mutex);
        }
        sum += queue.back();
        queue.pop_back();
        mutex.Unlock();
        not_full.Signal();
      }
    });
    Runtime::Join(producer);
    Runtime::Join(consumer);
  });
  EXPECT_EQ(sum, static_cast<long long>(kItems) * (kItems + 1) / 2);
}

// ---- Preemption ----

TEST(RuntimePreemptTest, CpuHogIsPreempted) {
  Runtime rt(RuntimeOptions{.workers = 1, .preempt_period_us = 2000});
  std::atomic<bool> hog_running{true};
  bool other_ran = false;
  rt.Run([&] {
    UThread* hog = Runtime::Spawn([&] {
      // Busy loop with no yields: only preemption lets anyone else run.
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
  EXPECT_TRUE(other_ran) << "preemption must break the CPU hog's monopoly";
  EXPECT_GT(rt.preemptions(), 0u);
}

TEST(RuntimePreemptTest, PreemptionPreservesComputation) {
  Runtime rt(RuntimeOptions{.workers = 2, .preempt_period_us = 1000});
  std::atomic<long long> total{0};
  rt.Run([&] {
    std::vector<UThread*> children;
    for (int i = 0; i < 8; i++) {
      children.push_back(Runtime::Spawn([&] {
        long long local = 0;
        for (int j = 0; j < 2'000'000; j++) {
          local += j % 7;
        }
        total.fetch_add(local);
      }));
    }
    for (UThread* c : children) {
      Runtime::Join(c);
    }
  });
  long long expected_one = 0;
  for (int j = 0; j < 2'000'000; j++) {
    expected_one += j % 7;
  }
  EXPECT_EQ(total.load(), expected_one * 8);
}

// Spins about a millisecond in the main executable's text, where the
// preemption handler accepts the PC; the clock is read only every 1024
// rounds so most ticks land in the loop itself.
void SpinAboutOneMs() {
  const std::int64_t until = SteadyNs() + 1'000'000;
  volatile std::uint64_t x = 0;
  do {
    for (int i = 0; i < 1024; i++) {
      x = x + 1;
    }
  } while (SteadyNs() < until);
}

// Join holds the runtime's wait lock (a std::mutex). Preempted there, the
// joiner sits in the runqueue while the child, exiting on the same worker,
// blocks the worker's pthread on that lock: a hang. A hook spins inside the
// section so timer ticks land in it every round.
TEST(RuntimePreemptTest, JoinSectionIsNotPreempted) {
  Runtime rt(RuntimeOptions{.workers = 1, .preempt_period_us = 100});
  Runtime::SetJoinLockedHookForTest(&SpinAboutOneMs);
  WithWatchdog(std::chrono::seconds(60), "Join under preemption ticks", [&] {
    rt.Run([&] {
      for (int round = 0; round < 20; round++) {
        Runtime::Join(Runtime::Spawn([] {}));
      }
    });
  });
  Runtime::SetJoinLockedHookForTest(nullptr);
}

// Current, Yield and Park (like ExitCurrent and PreemptGuard's constructor)
// load tl_worker and then act on that worker. A tick between the two steps
// could migrate the uthread, so the handler must defer anywhere inside them;
// ordinary uthread code stays preemptible.
TEST(RuntimePreemptTest, SwitchEntriesDeferPreemption) {
  const auto pc = [](auto* fn) { return reinterpret_cast<std::uintptr_t>(fn); };
  EXPECT_TRUE(Runtime::DefersPreemptionAt(pc(&Runtime::Yield)));
  EXPECT_TRUE(Runtime::DefersPreemptionAt(pc(&Runtime::Park)));
  EXPECT_TRUE(Runtime::DefersPreemptionAt(pc(&Runtime::Current)));
  EXPECT_FALSE(Runtime::DefersPreemptionAt(pc(&SpinAboutOneMs)));
  EXPECT_FALSE(Runtime::DefersPreemptionAt(pc(&Runtime::Unpark)));
}

// Allocator-heavy uthreads under an aggressive preemption timer. glibc's
// malloc keeps lockless per-pthread state (the tcache); preempting a uthread
// mid-allocation and running another uthread on the same pthread corrupts it
// unless the signal handler defers at unsafe PCs (the safe-point check).
// Without that check this test aborts within a few runs.
TEST(RuntimePreemptTest, PreemptionIsMallocSafe) {
  Runtime rt(RuntimeOptions{.workers = 2, .preempt_period_us = 500});
  std::atomic<long long> sum{0};
  // The churn runs ~10 ms, and on a loaded host the timer thread may not get
  // a CPU that soon: keep churning until it has tried at least once.
  const std::int64_t deadline = SteadyNs() + 10'000'000'000;
  auto timer_tried = [&] {
    return rt.preemptions() + rt.preempt_deferrals() > 0 || SteadyNs() > deadline;
  };
  rt.Run([&] {
    std::vector<UThread*> children;
    for (int i = 0; i < 8; i++) {
      children.push_back(Runtime::Spawn([&, i] {
        long long local = 0;
        for (int j = 0; j < 20'000 || !timer_tried(); j++) {
          // Churn the heap across size classes; no yields.
          std::string s = "key-" + std::to_string(i * 100'000 + j);
          std::vector<char> buf(static_cast<std::size_t>(j % 509 + 1), 'x');
          s += buf[buf.size() / 2];
          local += static_cast<long long>(s.size());
        }
        sum.fetch_add(local);
      }));
    }
    for (UThread* c : children) {
      Runtime::Join(c);
    }
  });
  EXPECT_GT(sum.load(), 0);
  // The timer must have actually tried: fired switches plus deferred signals.
  EXPECT_GT(rt.preemptions() + rt.preempt_deferrals(), 0u);
}

}  // namespace
}  // namespace skyloft
