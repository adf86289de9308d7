// Runqueue contention microbenchmark: aggregate enqueue+dequeue throughput
// of the host scheduler's two drivers as worker count grows.
//
// Drives HostSched directly (no uthreads, no timers) with one OS thread per
// worker in a closed loop. The policy selects the driver:
//   - mutex: round robin, which runs on the shard-mutex driver — every
//     operation through one policy instance behind a lock
//   - lockfree: work stealing, which runs on the two-level runqueue (MPSC
//     mailbox -> Chase-Lev deque, DESIGN.md section 9)
// Scenarios:
//   - local:  each worker cycles one item through its own queue (the yield
//     fast path — mailbox self-push + drain, zero cross-worker traffic when
//     lock-free)
//   - remote: each worker dequeues locally and enqueues to its neighbor,
//     with a stock of items per worker keeping the pipeline full
//     (cross-worker submission: the mailbox CAS path vs. the neighbor's
//     shard lock; empty workers fall into the steal path)
// Emits BENCH_runq_contention.json via BenchReporter. `--smoke` shrinks the
// measurement window and worker sweep for CI.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/base/compiler.h"
#include "src/base/logging.h"
#include "src/runtime/host_sched.h"

namespace skyloft {
namespace {

// One scheduling item per worker, each on its own cache lines so the bench
// measures the runqueues, not false sharing between neighboring items.
struct alignas(kCacheLineSize) BenchItem {
  SchedItem item;
};

struct ScenarioResult {
  std::uint64_t ops = 0;  // enqueues + dequeues completed
  double mops_per_s = 0;
  const char* policy = "";  // the policy that selected the driver
};

// Closed loop: every worker starts with `stock` items in its own queue and
// cycles them (dequeue + enqueue = 2 ops per iteration). `remote` sends each
// item to the next worker instead of back to ourselves.
ScenarioResult RunScenario(bool lock_free, bool remote, int workers, int stock,
                           DurationNs measure_ns) {
  HostSchedOptions opts;
  opts.policy = lock_free ? RuntimePolicy::kWorkStealing : RuntimePolicy::kRoundRobin;
  HostSched sched(workers, opts);
  SKYLOFT_CHECK(sched.lock_free() == lock_free);

  std::vector<BenchItem> items(static_cast<std::size_t>(workers * stock));
  for (int i = 0; i < workers * stock; i++) {
    items[static_cast<std::size_t>(i)].item.id = static_cast<std::uint64_t>(i + 1);
    sched.Enqueue(&items[static_cast<std::size_t>(i)].item, kEnqueueNew, i % workers);
  }

  std::atomic<bool> stop{false};
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::uint64_t> ops(static_cast<std::size_t>(workers), 0);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; w++) {
    threads.emplace_back([&, w] {
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      std::uint64_t local = 0;
      const int target = remote ? (w + 1) % workers : w;
      while (!stop.load(std::memory_order_relaxed)) {
        SchedItem* item = sched.Dequeue(w);
        if (item == nullptr) {
          // Our item is in flight (neighbor hasn't forwarded yet, or a thief
          // migrated it); let whoever holds it run.
          std::this_thread::yield();
          continue;
        }
        sched.Enqueue(item, kEnqueueYield, target);
        local += 2;
      }
      ops[static_cast<std::size_t>(w)] = local;
    });
  }
  while (ready.load() < workers) {
    std::this_thread::yield();
  }
  const auto start = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::nanoseconds(measure_ns));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) {
    t.join();
  }
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  ScenarioResult result;
  for (int w = 0; w < workers; w++) {
    result.ops += ops[static_cast<std::size_t>(w)];
  }
  result.mops_per_s = static_cast<double>(result.ops) / elapsed_s / 1e6;
  result.policy = sched.PolicyName();
  return result;
}

}  // namespace
}  // namespace skyloft

int main(int argc, char** argv) {
  using namespace skyloft;
  bool smoke = false;
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  const DurationNs measure = smoke ? Millis(30) : Millis(200);
  std::vector<int> worker_counts = smoke ? std::vector<int>{1, 2, 4} : std::vector<int>{1, 2, 4, 8};

  BenchReporter reporter("runq_contention");
  reporter.MetaNum("measure_ms", static_cast<double>(measure) / 1e6);
  reporter.MetaBool("smoke", smoke);
  reporter.MetaNum("hw_threads", std::thread::hardware_concurrency());

  PrintHeader("Runqueue contention: mutex-shard vs lock-free (enq+deq Mops/s)",
              {"scenario", "workers", "mutex", "lockfree", "speedup"});
  for (const bool remote : {false, true}) {
    const char* scenario = remote ? "remote" : "local";
    // Local measures the single-item yield cycle; remote keeps a stock of
    // items per worker so the pipeline measures throughput, not the OS
    // context-switch latency of handing one item around a ring.
    const int stock = remote ? 16 : 1;
    for (const int workers : worker_counts) {
      const ScenarioResult mutex_r =
          RunScenario(/*lock_free=*/false, remote, workers, stock, measure);
      const ScenarioResult lf_r = RunScenario(/*lock_free=*/true, remote, workers, stock, measure);
      const double speedup =
          mutex_r.mops_per_s > 0 ? lf_r.mops_per_s / mutex_r.mops_per_s : 0;
      PrintCell(scenario);
      PrintCell(static_cast<std::int64_t>(workers));
      PrintCell(mutex_r.mops_per_s);
      PrintCell(lf_r.mops_per_s);
      PrintCell(speedup);
      EndRow();
      reporter.AddRow()
          .Str("scenario", scenario)
          .Int("workers", workers)
          .Str("mutex_policy", mutex_r.policy)
          .Str("lockfree_policy", lf_r.policy)
          .Num("mutex_mops", mutex_r.mops_per_s)
          .Num("lockfree_mops", lf_r.mops_per_s)
          .Num("speedup", speedup);
    }
  }
  return reporter.WriteFile() ? 0 : 1;
}
