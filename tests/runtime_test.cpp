// Tests for the host M:N user-level threading runtime: context switching,
// spawn/join, yield fairness, work stealing, park/unpark races, mutex and
// condition variable semantics, and signal-timer preemption.
#include <gtest/gtest.h>
#include <pthread.h>
#include <sched.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/policies/round_robin.h"
#include "src/policies/work_stealing.h"
#include "src/runtime/context.h"
#include "src/runtime/host_sched.h"
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

// Join's link on the target's join word races the target's exit on another
// worker. Four parents spawn two children a round and join both: the second
// spawn moves the first child out of the run-next slot, where an idle
// worker can steal it and exit it while its parent links. Then 8 joiners
// link on one target that exits, on whichever worker runs it, once all 8
// have started. Every joiner must return.
TEST(JoinTest, JoinRacesExitAcrossWorkers) {
  constexpr int kParents = 4;
  constexpr int kRounds = 2000;
  constexpr int kFanRounds = 200;
  constexpr int kJoiners = 8;
  Runtime rt(RuntimeOptions{.workers = 4});
  std::atomic<int> exits{0};
  std::atomic<int> returns{0};
  WithWatchdog(std::chrono::seconds(120), "Join racing exits", [&] {
    rt.Run([&] {
      std::vector<UThread*> parents;
      for (int p = 0; p < kParents; p++) {
        parents.push_back(Runtime::Spawn([&] {
          for (int round = 0; round < kRounds; round++) {
            UThread* a = Runtime::Spawn([&] { exits.fetch_add(1); });
            UThread* b = Runtime::Spawn([&] { exits.fetch_add(1); });
            Runtime::Join(a);
            Runtime::Join(b);
            returns.fetch_add(2);
          }
        }));
      }
      for (UThread* p : parents) {
        Runtime::Join(p);
      }
      for (int round = 0; round < kFanRounds; round++) {
        std::atomic<int> started{0};
        UThread* target = Runtime::Spawn([&] {
          while (started.load() < kJoiners) {
            Runtime::Yield();
          }
          exits.fetch_add(1);
        });
        std::vector<UThread*> joiners;
        for (int j = 0; j < kJoiners; j++) {
          joiners.push_back(Runtime::Spawn([&, target] {
            started.fetch_add(1);
            Runtime::Join(target);
            returns.fetch_add(1);
          }));
        }
        for (UThread* j : joiners) {
          Runtime::Join(j);
        }
      }
    });
  });
  EXPECT_EQ(exits.load(), kParents * kRounds * 2 + kFanRounds);
  EXPECT_EQ(returns.load(), kParents * kRounds * 2 + kFanRounds * kJoiners);
}

// ---- Park / Unpark and the direct handoff ----

// Two uthreads Unpark one target each time it is about to park. When the
// scheduler stack completed a park, it could requeue the target for a
// pending unpark while a second Unpark also scheduled it, and two workers
// ran one stack. The target's running flag catches a second copy of it;
// the runtime's switch-in check (and the mutex driver's intrusive list)
// abort on a uthread queued twice.
void DoubleUnparkWhileParking(SchedPolicy* policy) {
  constexpr int kRounds = 10'000;
  Runtime rt(RuntimeOptions{.workers = 4, .policy = policy});
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
  DoubleUnparkWhileParking(nullptr);  // default work stealing
}

// FIFO rides the shard-mutex driver.
TEST(RuntimeParkTest, DoubleUnparkWhileParkingLocked) {
  RoundRobinPolicy fifo(kInfiniteSlice);
  DoubleUnparkWhileParking(&fifo);
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

// A bounded-queue pipeline on a mutex and two condvars: each producer
// pushes 1..500, and the last producer to finish closes the queue with a
// Broadcast that releases every consumer still waiting. Returns the sum the
// consumers popped.
long long RunPipeline(int workers, int producers, int consumers) {
  constexpr std::size_t kCap = 4;
  constexpr int kItems = 500;
  Runtime rt(RuntimeOptions{.workers = workers});
  UthreadMutex mutex;
  UthreadCondVar not_empty;
  UthreadCondVar not_full;
  std::vector<int> queue;
  int producers_left = producers;
  bool closed = false;
  std::atomic<long long> sum{0};
  rt.Run([&] {
    std::vector<UThread*> threads;
    for (int p = 0; p < producers; p++) {
      threads.push_back(Runtime::Spawn([&] {
        for (int i = 1; i <= kItems; i++) {
          mutex.Lock();
          while (queue.size() >= kCap) {
            not_full.Wait(&mutex);
          }
          queue.push_back(i);
          mutex.Unlock();
          not_empty.Signal();
        }
        mutex.Lock();
        closed = --producers_left == 0;
        const bool close = closed;
        mutex.Unlock();
        if (close) {
          not_empty.Broadcast();
        }
      }));
    }
    for (int c = 0; c < consumers; c++) {
      threads.push_back(Runtime::Spawn([&] {
        for (;;) {
          mutex.Lock();
          while (queue.empty() && !closed) {
            not_empty.Wait(&mutex);
          }
          if (queue.empty()) {
            mutex.Unlock();
            return;  // closed and drained
          }
          const int value = queue.back();
          queue.pop_back();
          mutex.Unlock();
          not_full.Signal();
          sum.fetch_add(value);
        }
      }));
    }
    for (UThread* t : threads) {
      Runtime::Join(t);
    }
  });
  return sum.load();
}

// Producer/consumer pipelines across workers: one pair on 2 workers, and
// 4 producers x 3 consumers on 4 workers, where every wait, signal and the
// closing Broadcast can cross workers.
TEST(RuntimeSyncTest, ProducerConsumerPipeline) {
  constexpr long long kPerProducer = 500LL * 501 / 2;
  EXPECT_EQ(RunPipeline(2, 1, 1), kPerProducer);
  EXPECT_EQ(RunPipeline(4, 4, 3), 4 * kPerProducer);
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

// Spins until the steady clock reaches `until_ns`, in the main executable's
// text, where the preemption handler accepts the PC; the clock is read only
// every 1024 rounds so most ticks land in the loop itself.
void SpinUntilNs(std::int64_t until_ns) {
  volatile std::uint64_t x = 0;
  do {
    for (int i = 0; i < 1024; i++) {
      x = x + 1;
    }
  } while (SteadyNs() < until_ns);
}

void SpinAboutOneMs() { SpinUntilNs(SteadyNs() + 1'000'000); }

// Join under 100 us ticks: each child spins about 1 ms, so ticks land
// while its parent links itself on the join word, parks and wakes.
TEST(RuntimePreemptTest, JoinUnderTicksReturns) {
  Runtime rt(RuntimeOptions{.workers = 1, .preempt_period_us = 100});
  WithWatchdog(std::chrono::seconds(60), "Join under preemption ticks", [&] {
    rt.Run([&] {
      for (int round = 0; round < 20; round++) {
        Runtime::Join(Runtime::Spawn([] { SpinAboutOneMs(); }));
      }
    });
  });
}

// Current, Yield and Park (like ExitCurrent and PreemptGuard's constructor)
// load tl_worker and then act on that worker. A tick between the two steps
// could migrate the uthread, so the handler must defer anywhere inside them,
// and inside the switch primitive, where the departing context is still
// marked on-CPU; ordinary uthread code stays preemptible.
TEST(RuntimePreemptTest, SwitchEntriesDeferPreemption) {
  const auto pc = [](auto* fn) { return reinterpret_cast<std::uintptr_t>(fn); };
  EXPECT_TRUE(Runtime::DefersPreemptionAt(pc(&skyloft_ctx_switch)));
  // Past the pushes and the stack swap, before the on_cpu store.
  EXPECT_TRUE(Runtime::DefersPreemptionAt(pc(&skyloft_ctx_switch) + 16));
  EXPECT_TRUE(Runtime::DefersPreemptionAt(pc(&Runtime::Yield)));
  EXPECT_TRUE(Runtime::DefersPreemptionAt(pc(&Runtime::Park)));
  EXPECT_TRUE(Runtime::DefersPreemptionAt(pc(&Runtime::Current)));
  EXPECT_FALSE(Runtime::DefersPreemptionAt(pc(&SpinAboutOneMs)));
  EXPECT_FALSE(Runtime::DefersPreemptionAt(pc(&Runtime::Unpark)));
}

std::int64_t ClockNs(clockid_t clock) {
  struct timespec ts;
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// Each worker's own timer delivers the configured period. Counted: the
// kSignal and kDeferred instants the handler records (every delivered tick
// is one or the other) inside a window, divided by the worker pthread's CPU
// time over that window, so a loaded host that deschedules the worker does
// not read as lost ticks.
TEST(RuntimePreemptTest, DeliversConfiguredPeriod) {
  constexpr std::int64_t kPeriodUs = 20;
  SchedTracer tracer(1 << 18);
  RuntimeOptions opts{.workers = 1, .preempt_period_us = kPeriodUs};
  opts.tracer = &tracer;
  Runtime rt(opts);
  std::atomic<bool> stop{false};
  std::int64_t window_start = 0;
  std::int64_t window_end = 0;
  std::int64_t cpu_ns = 0;
  WithWatchdog(std::chrono::seconds(60), "busy uthreads under a 20 us tick", [&] {
    rt.Run([&] {
      std::vector<UThread*> busy;
      for (int i = 0; i < 2; i++) {
        busy.push_back(Runtime::Spawn([&] {
          volatile std::uint64_t x = 0;
          while (!stop.load(std::memory_order_relaxed)) {
            x = x + 1;
          }
        }));
      }
      // One worker: this uthread's thread CPU clock is the worker's.
      const std::int64_t cpu_start = ClockNs(CLOCK_THREAD_CPUTIME_ID);
      window_start = ClockNs(CLOCK_MONOTONIC);
      SpinUntilNs(window_start + 200'000'000);
      window_end = ClockNs(CLOCK_MONOTONIC);
      cpu_ns = ClockNs(CLOCK_THREAD_CPUTIME_ID) - cpu_start;
      stop.store(true);
      for (UThread* t : busy) {
        Runtime::Join(t);
      }
    });
  });
  ASSERT_LE(tracer.total_recorded(), tracer.capacity()) << "trace ring wrapped";
  std::int64_t ticks = 0;
  for (const TraceEvent& e : tracer.Snapshot()) {
    if ((e.type == TraceEventType::kSignal || e.type == TraceEventType::kDeferred) &&
        e.when >= window_start && e.when < window_end) {
      ticks++;
    }
  }
  const double configured_hz = 1e6 / static_cast<double>(kPeriodUs);
  const double delivered_hz = static_cast<double>(ticks) / (static_cast<double>(cpu_ns) / 1e9);
  std::printf("delivered %.0f of %.0f ticks per worker CPU-second\n", delivered_hz,
              configured_hz);
  EXPECT_GT(ticks, 0);
#ifndef __SANITIZE_THREAD__
  // Not under TSan: its interceptor queues the signal and runs the handler
  // later, at the uthread's next instrumented atomic, between two signal
  // mask syscalls. That reached about 70% of a 20 us period.
  EXPECT_GE(delivered_hz, 0.9 * configured_hz);
#endif
}

// A uthread spinning inside a PreemptGuard receives its worker's ticks but
// is never preempted; each of those ticks still counts as a deferral, so
// preemptions plus deferrals account for the ticks a worker received.
TEST(RuntimePreemptTest, GuardedSpinCountsDeferredTicks) {
  constexpr std::int64_t kPeriodUs = 100;
  Runtime rt(RuntimeOptions{.workers = 1, .preempt_period_us = kPeriodUs});
  std::uint64_t deferrals = 0;
  std::int64_t cpu_ns = 0;
  WithWatchdog(std::chrono::seconds(60), "a guarded spin under a 100 us tick", [&] {
    rt.Run([&] {
      Runtime::PreemptGuard guard;
      const std::uint64_t before = rt.preempt_deferrals();
      // One worker: this uthread's thread CPU clock is the worker's.
      const std::int64_t cpu_start = ClockNs(CLOCK_THREAD_CPUTIME_ID);
      SpinUntilNs(SteadyNs() + 50'000'000);
      cpu_ns = ClockNs(CLOCK_THREAD_CPUTIME_ID) - cpu_start;
      deferrals = rt.preempt_deferrals() - before;
    });
  });
  const double implied_ticks = static_cast<double>(cpu_ns) / (kPeriodUs * 1000.0);
  std::printf("%llu deferrals for %.0f ticks of worker CPU time\n",
              static_cast<unsigned long long>(deferrals), implied_ticks);
  EXPECT_EQ(rt.preemptions(), 0u);
  EXPECT_GT(deferrals, 0u);
#ifndef __SANITIZE_THREAD__
  // Not under TSan, which delays a signal to the uthread's next
  // instrumented atomic (see DeliversConfiguredPeriod).
  EXPECT_GE(static_cast<double>(deferrals), 0.5 * implied_ticks);
#endif
}

// Park raises and lowers the same per-uthread depth a PreemptGuard holds, so
// a guard taken before a Park still holds after it: with a runnable uthread
// waiting and a 1 us round-robin slice, every tick during the guarded spin
// that follows is deferred.
TEST(RuntimePreemptTest, GuardHeldAcrossParkStillDefers) {
  RoundRobinPolicy rr(Micros(1));
  Runtime rt(RuntimeOptions{.workers = 1, .preempt_period_us = 100, .policy = &rr});
  std::uint64_t preemptions = 0;
  std::uint64_t deferrals = 0;
  WithWatchdog(std::chrono::seconds(60), "a guarded spin after Park", [&] {
    rt.Run([&] {
      std::atomic<bool> stop{false};
      UThread* waiter = nullptr;
      {
        Runtime::PreemptGuard guard;
        UThread* self = Runtime::Current();
        Runtime::Spawn([self] { Runtime::Unpark(self); });
        Runtime::Park();
        waiter = Runtime::Spawn([&] {
          while (!stop.load(std::memory_order_relaxed)) {
            Runtime::Yield();
          }
        });
        const std::uint64_t preemptions_before = rt.preemptions();
        const std::uint64_t deferrals_before = rt.preempt_deferrals();
        SpinUntilNs(SteadyNs() + 20'000'000);
        preemptions = rt.preemptions() - preemptions_before;
        deferrals = rt.preempt_deferrals() - deferrals_before;
        stop.store(true);
      }
      Runtime::Join(waiter);
    });
  });
  EXPECT_EQ(preemptions, 0u);
  EXPECT_GT(deferrals, 0u);
}

// The constructor refuses a period below the floor, before any thread
// starts.
TEST(RuntimePreemptDeathTest, RefusesPeriodBelowFloor) {
  EXPECT_DEATH(Runtime(RuntimeOptions{.workers = 1,
                                      .preempt_period_us = Runtime::kMinPreemptPeriodUs - 1}),
               "below the 15 us floor");
}

// A null uthread is refused with a message, not dereferenced in the park
// word.
TEST(RuntimeParkDeathTest, UnparkOfNullAborts) {
  EXPECT_DEATH(
      {
        Runtime rt(RuntimeOptions{.workers = 1});
        rt.Run([] { Runtime::Unpark(nullptr); });
      },
      "Unpark of a null uthread");
}

// Allocator-heavy uthreads under an aggressive preemption timer. glibc's
// malloc keeps lockless per-pthread state (the tcache); preempting a uthread
// mid-allocation and running another uthread on the same pthread corrupts it
// unless the signal handler defers at unsafe PCs (the safe-point check).
// Without that check this test aborts within a few runs.
TEST(RuntimePreemptTest, PreemptionIsMallocSafe) {
  Runtime rt(RuntimeOptions{.workers = 2, .preempt_period_us = 500});
  std::atomic<long long> sum{0};
  // The churn runs ~10 ms, and on a loaded host the workers may not get a
  // CPU for a whole period that soon: keep churning until a tick has landed.
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

// ---- The lock-free driver's run-next slot ----
//
// HostSched driven directly from the test thread, which plays each worker's
// own thread in turn: EnqueueLocal is a submission made on the worker,
// Enqueue with a hint one made from elsewhere.

// A local submission takes the slot only when nothing else waits, so it
// runs after every item queued before it: in the mailbox, in the deque, or
// in the slot.
TEST(HostSchedRunNextTest, LocalSubmissionRunsAfterQueuedWork) {
  HostSched sched(1, nullptr);
  ASSERT_TRUE(sched.lock_free());
  SchedItem a, b, c;
  sched.Enqueue(&a, kEnqueueWakeup, 0);       // the mailbox
  sched.EnqueueLocal(&b, kEnqueueWakeup, 0);  // behind a, in the mailbox
  EXPECT_EQ(sched.Dequeue(0), &a);            // drains b into the deque
  sched.EnqueueLocal(&c, kEnqueueWakeup, 0);  // behind b, in the deque
  EXPECT_EQ(sched.Dequeue(0), &b);
  EXPECT_EQ(sched.Dequeue(0), &c);
  EXPECT_EQ(sched.Dequeue(0), nullptr);

  sched.EnqueueLocal(&a, kEnqueueWakeup, 0);  // the slot
  sched.Enqueue(&b, kEnqueueWakeup, 0);
  sched.EnqueueLocal(&c, kEnqueueWakeup, 0);  // behind a and b
  EXPECT_EQ(sched.Dequeue(0), &a);
  EXPECT_EQ(sched.Dequeue(0), &b);
  EXPECT_EQ(sched.Dequeue(0), &c);
  EXPECT_EQ(sched.Dequeue(0), nullptr);
}

// An item waiting in a run-next slot, the worker's own or another's, is
// work a hog past its quantum is preempted for.
TEST(HostSchedRunNextTest, TickPreemptsForWorkInTheSlot) {
  WorkStealingPolicy ws(WorkStealingParams{.quantum = Micros(100)});
  for (int waiter_worker = 0; waiter_worker < 2; waiter_worker++) {
    HostSched sched(2, &ws);
    ASSERT_TRUE(sched.lock_free());
    SchedItem hog, waiter;
    sched.EnqueueLocal(&hog, kEnqueueNew, 0);
    ASSERT_EQ(sched.Dequeue(0), &hog);
    EXPECT_FALSE(sched.Tick(0, &hog, Micros(200))) << "nothing waits";
    sched.EnqueueLocal(&waiter, kEnqueueWakeup, waiter_worker);
    EXPECT_TRUE(sched.Tick(0, &hog, Micros(200))) << "waiter on worker " << waiter_worker;
    EXPECT_EQ(sched.Dequeue(waiter_worker), &waiter);
  }
}

// Thieves cannot see the slot: an idle worker finds nothing to steal, and
// the owner still holds the item.
TEST(HostSchedRunNextTest, StealFindsNothingInTheSlot) {
  HostSched sched(2, nullptr);
  SchedItem item;
  sched.EnqueueLocal(&item, kEnqueueNew, 0);
  EXPECT_EQ(sched.Dequeue(1), nullptr);
  EXPECT_EQ(sched.steals(), 0u);
  EXPECT_EQ(sched.Dequeue(0), &item);
}

// Off-runtime placement counts the slot as waiting work.
TEST(HostSchedRunNextTest, ExternalTargetCountsTheSlot) {
  HostSched sched(2, nullptr);
  EXPECT_EQ(sched.ExternalTarget(), 0);  // a tie goes to the first worker
  SchedItem item;
  sched.EnqueueLocal(&item, kEnqueueNew, 0);
  EXPECT_EQ(sched.ExternalTarget(), 1);
  EXPECT_EQ(sched.Dequeue(0), &item);
}

// ---- Per-core workers ----

std::vector<int> CpusOf(const cpu_set_t& mask) {
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; cpu++) {
    if (CPU_ISSET(cpu, &mask)) {
      cpus.push_back(cpu);
    }
  }
  return cpus;
}

// The affinity mask of every worker pthread of a runtime, keyed by thread:
// uthreads record their worker's mask and yield until steals have carried
// them to every worker.
std::map<pthread_t, std::vector<int>> WorkerMasks(int workers) {
  std::map<pthread_t, std::vector<int>> masks;
  std::mutex mu;
  Runtime rt(RuntimeOptions{.workers = workers});
  rt.Run([&] {
    std::vector<UThread*> children;
    for (int i = 0; i < 4 * workers; i++) {
      children.push_back(Runtime::Spawn([&] {
        const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
        for (;;) {
          cpu_set_t mask;
          CPU_ZERO(&mask);
          EXPECT_EQ(pthread_getaffinity_np(pthread_self(), sizeof(mask), &mask), 0);
          {
            std::lock_guard<std::mutex> lock(mu);
            masks[pthread_self()] = CpusOf(mask);
            if (static_cast<int>(masks.size()) >= workers) {
              return;
            }
          }
          if (std::chrono::steady_clock::now() > deadline) {
            return;  // no steal came; the size check below fails
          }
          Runtime::Yield();
        }
      }));
    }
    for (UThread* c : children) {
      Runtime::Join(c);
    }
  });
  return masks;
}

// With a CPU for every worker, each worker holds one CPU of its own, taken
// from the top of the caller's mask.
TEST(RuntimePinningTest, WorkersTakeTheHighestCpusOneEach) {
  cpu_set_t caller;
  ASSERT_EQ(sched_getaffinity(0, sizeof(caller), &caller), 0);
  const std::vector<int> allowed = CpusOf(caller);
  if (allowed.size() < 2) {
    GTEST_SKIP() << "needs 2 allowed CPUs, has " << allowed.size();
  }
  std::map<pthread_t, std::vector<int>> masks;
  WithWatchdog(std::chrono::seconds(60), "WorkersTakeTheHighestCpusOneEach",
               [&] { masks = WorkerMasks(2); });
  ASSERT_EQ(masks.size(), 2u);
  std::vector<int> pinned;
  for (const auto& [thread, cpus] : masks) {
    ASSERT_EQ(cpus.size(), 1u) << "a worker runs on " << cpus.size() << " CPUs";
    pinned.push_back(cpus[0]);
  }
  std::sort(pinned.begin(), pinned.end());
  EXPECT_EQ(pinned, (std::vector<int>{allowed[allowed.size() - 2], allowed.back()}));
}

// With fewer CPUs than workers, no worker is pinned: each keeps the
// caller's mask instead of two sharing one chosen CPU. The caller's mask is
// cut to 1 CPU for 2 workers, and, where the host has them, to 2 CPUs for 3
// workers, where a pinned worker would show a 1-CPU mask.
TEST(RuntimePinningTest, OversubscribedWorkersStayUnpinned) {
  cpu_set_t caller;
  ASSERT_EQ(sched_getaffinity(0, sizeof(caller), &caller), 0);
  const std::vector<int> allowed = CpusOf(caller);
  ASSERT_FALSE(allowed.empty());
  for (std::size_t cut = 1; cut <= 2 && cut <= allowed.size(); cut++) {
    const std::vector<int> kept(allowed.begin(), allowed.begin() + static_cast<long>(cut));
    cpu_set_t narrow;
    CPU_ZERO(&narrow);
    for (const int cpu : kept) {
      CPU_SET(cpu, &narrow);
    }
    ASSERT_EQ(sched_setaffinity(0, sizeof(narrow), &narrow), 0);
    const int workers = static_cast<int>(cut) + 1;
    std::map<pthread_t, std::vector<int>> masks;
    WithWatchdog(std::chrono::seconds(60), "OversubscribedWorkersStayUnpinned",
                 [&] { masks = WorkerMasks(workers); });
    ASSERT_EQ(sched_setaffinity(0, sizeof(caller), &caller), 0);
    ASSERT_EQ(static_cast<int>(masks.size()), workers) << cut << " CPUs";
    for (const auto& [thread, cpus] : masks) {
      EXPECT_EQ(cpus, kept) << workers << " workers on " << cut << " CPUs";
    }
  }
}

}  // namespace
}  // namespace skyloft
