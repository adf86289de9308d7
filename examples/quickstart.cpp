// Quickstart: the Skyloft host runtime in about 100 lines.
//
// Spawns user-level threads on an M:N runtime with work stealing, shows
// cooperative scheduling (yield), blocking synchronization (mutex +
// condvar), and microsecond-scale preemption of an uncooperative thread —
// the capability UINTR provides in the paper, here via the signal-timer
// fallback (see DESIGN.md). Exits non-zero if no tick preempted a hog.
//
//   ./build/examples/quickstart
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "src/runtime/sync.h"
#include "src/runtime/uthread.h"

using skyloft::Runtime;
using skyloft::RuntimeOptions;
using skyloft::UThread;

int main() {
  // Two workers, 1 ms preemption timer (the UINTR stand-in).
  Runtime rt(RuntimeOptions{.workers = 2, .preempt_period_us = 1000});
  std::uint64_t preemptions_before_hogs = 0;

  rt.Run([&] {
    std::printf("[1] spawn/join: ");
    UThread* child = Runtime::Spawn([] { std::printf("hello from a uthread\n"); });
    Runtime::Join(child);

    std::printf("[2] cooperative yield: ");
    UThread* a = Runtime::Spawn([] {
      for (int i = 0; i < 3; i++) {
        std::printf("A");
        Runtime::Yield();
      }
    });
    UThread* b = Runtime::Spawn([] {
      for (int i = 0; i < 3; i++) {
        std::printf("B");
        Runtime::Yield();
      }
    });
    Runtime::Join(a);
    Runtime::Join(b);
    std::printf("  (interleaved)\n");

    std::printf("[3] mutex + condvar: ");
    skyloft::UthreadMutex mutex;
    skyloft::UthreadCondVar cv;
    bool ready = false;
    UThread* waiter = Runtime::Spawn([&] {
      skyloft::UthreadMutexGuard guard(&mutex);
      while (!ready) {
        cv.Wait(&mutex);
      }
      std::printf("woken exactly once\n");
    });
    Runtime::Yield();
    {
      skyloft::UthreadMutexGuard guard(&mutex);
      ready = true;
    }
    cv.Signal();
    Runtime::Join(waiter);

    // One hog per worker, none of which ever yields. Once every hog has
    // started, this uthread — and the rescuer it spawns — can only get a
    // worker back if a timer tick preempts a hog.
    std::printf("[4] preempting CPU hogs: ");
    preemptions_before_hogs = rt.preemptions();
    std::atomic<bool> stop{false};
    std::atomic<int> started{0};
    std::vector<UThread*> hogs;
    for (int i = 0; i < rt.workers(); i++) {
      hogs.push_back(Runtime::Spawn([&] {
        started.fetch_add(1);
        volatile unsigned long spin = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          spin = spin + 1;
        }
      }));
    }
    while (started.load() < rt.workers()) {
      Runtime::Yield();
    }
    UThread* rescuer = Runtime::Spawn([&] { stop.store(true); });
    Runtime::Join(rescuer);
    for (UThread* hog : hogs) {
      Runtime::Join(hog);
    }
    std::printf("rescuer ran despite %d hogs\n", rt.workers());
  });

  std::printf("preemptions delivered: %llu, steals: %llu\n",
              static_cast<unsigned long long>(rt.preemptions()),
              static_cast<unsigned long long>(rt.steals()));
  if (rt.preemptions() == preemptions_before_hogs) {
    std::printf("error: step [4] finished without a preemption\n");
    return 1;
  }
  return 0;
}
