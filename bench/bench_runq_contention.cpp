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
//     fast path — a submission made on the worker, which lock-free puts in
//     the run-next slot: two plain stores, zero cross-worker traffic)
//   - remote: each worker dequeues locally and enqueues to its neighbor,
//     with a stock of items per worker keeping the pipeline full
//     (cross-worker submission: the mailbox CAS path vs. the neighbor's
//     shard lock; empty workers fall into the steal path)
// Worker thread w is pinned to CPU w mod n of the process affinity mask's n
// CPUs, so the kernel cannot stack two workers on one CPU while another idles.
// Each point runs 5 times (3 with `--smoke`), alternating the drivers so
// host-speed drift hits both columns alike, and reports the median and the
// min-max. The binary exits nonzero if the lock-free median falls below the
// mutex median at any point. Emits BENCH_runq_contention.json via
// BenchReporter. `--smoke` also shrinks the measurement window and worker
// sweep for CI.
#include <pthread.h>
#include <sched.h>

#include <algorithm>
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
#include "src/policies/round_robin.h"
#include "src/policies/work_stealing.h"
#include "src/runtime/host_sched.h"

namespace skyloft {
namespace {

// One scheduling item per worker, each on its own cache lines so the bench
// measures the runqueues, not false sharing between neighboring items.
struct alignas(kCacheLineSize) BenchItem {
  SchedItem item;
};

// The CPUs of the process affinity mask, in order; empty if it is unreadable.
std::vector<int> AllowedCpus() {
  cpu_set_t mask;
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; cpu++) {
      if (CPU_ISSET(cpu, &mask)) {
        cpus.push_back(cpu);
      }
    }
  }
  return cpus;
}

// Pins the calling thread to one CPU; false if that fails.
bool PinTo(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return pthread_setaffinity_np(pthread_self(), sizeof(set), &set) == 0;
}

// Closed loop: every worker starts with `stock` items in its own queue and
// cycles them (dequeue + enqueue = 2 ops per iteration). `remote` sends each
// item to the next worker instead of back to ourselves. Returns enqueue +
// dequeue Mops/s; `policy` picks the driver. Worker w runs pinned to
// cpus[w mod size]; a failed pin clears `*pinned`.
double RunScenario(SchedPolicy* policy, bool remote, int workers, int stock,
                   DurationNs measure_ns, const std::vector<int>& cpus,
                   std::atomic<bool>* pinned) {
  HostSched sched(workers, policy);

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
      if (cpus.empty() || !PinTo(cpus[static_cast<std::size_t>(w) % cpus.size()])) {
        pinned->store(false);
      }
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
        if (target == w) {
          sched.EnqueueLocal(item, kEnqueueYield, w);
        } else {
          sched.Enqueue(item, kEnqueueYield, target);
        }
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

  std::uint64_t total = 0;
  for (int w = 0; w < workers; w++) {
    total += ops[static_cast<std::size_t>(w)];
  }
  return static_cast<double>(total) / elapsed_s / 1e6;
}

struct Spread {
  double median = 0;
  double min = 0;
  double max = 0;
};

// `runs` has an odd length, so the median is one run.
Spread Summarize(std::vector<double> runs) {
  std::sort(runs.begin(), runs.end());
  return Spread{runs[runs.size() / 2], runs.front(), runs.back()};
}

std::string Range(const Spread& s) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f-%.1f", s.min, s.max);
  return buf;
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
  const int repeats = smoke ? 3 : 5;
  std::vector<int> worker_counts = smoke ? std::vector<int>{1, 2, 4} : std::vector<int>{1, 2, 4, 8};

  BenchReporter reporter("runq_contention");
  reporter.MetaNum("measure_ms", static_cast<double>(measure) / 1e6);
  reporter.MetaNum("repeats", repeats);
  reporter.MetaBool("smoke", smoke);
  reporter.MetaNum("hw_threads", std::thread::hardware_concurrency());
  const std::vector<int> cpus = AllowedCpus();
  std::atomic<bool> pinned{true};

  PrintHeader("Runqueue contention: mutex-shard vs lock-free (enq+deq Mops/s, median of " +
                  std::to_string(repeats) + ")",
              {"scenario", "workers", "mutex", "mutex range", "lockfree", "lockfree range",
               "speedup"});
  int behind = 0;
  for (const bool remote : {false, true}) {
    const char* scenario = remote ? "remote" : "local";
    // Local measures the single-item yield cycle; remote keeps a stock of
    // items per worker so the pipeline measures throughput, not the OS
    // context-switch latency of handing one item around a ring.
    const int stock = remote ? 16 : 1;
    for (const int workers : worker_counts) {
      std::vector<double> mutex_runs;
      std::vector<double> lf_runs;
      const char* mutex_policy = "";
      const char* lf_policy = "";
      for (int r = 0; r < repeats; r++) {
        // Fresh policies per run: items left queued at the end of a run stay
        // in the policy's queues.
        RoundRobinPolicy rr(Micros(12) + 500);
        WorkStealingPolicy ws(WorkStealingParams{});
        mutex_runs.push_back(RunScenario(&rr, remote, workers, stock, measure, cpus, &pinned));
        lf_runs.push_back(RunScenario(&ws, remote, workers, stock, measure, cpus, &pinned));
        mutex_policy = rr.Name();
        lf_policy = ws.Name();
      }
      const Spread mutex_r = Summarize(mutex_runs);
      const Spread lf_r = Summarize(lf_runs);
      const double speedup = mutex_r.median > 0 ? lf_r.median / mutex_r.median : 0;
      PrintCell(scenario);
      PrintCell(static_cast<std::int64_t>(workers));
      PrintCell(mutex_r.median);
      PrintCell(Range(mutex_r).c_str());
      PrintCell(lf_r.median);
      PrintCell(Range(lf_r).c_str());
      PrintCell(speedup);
      EndRow();
      reporter.AddRow()
          .Str("scenario", scenario)
          .Int("workers", workers)
          .Str("mutex_policy", mutex_policy)
          .Str("lockfree_policy", lf_policy)
          .Num("mutex_mops", mutex_r.median)
          .Num("mutex_mops_min", mutex_r.min)
          .Num("mutex_mops_max", mutex_r.max)
          .Num("lockfree_mops", lf_r.median)
          .Num("lockfree_mops_min", lf_r.min)
          .Num("lockfree_mops_max", lf_r.max)
          .Num("speedup", speedup);
      if (lf_r.median < mutex_r.median) {
        std::fprintf(stderr, "FAIL: %s/%d workers: lock-free median %.1f < mutex median %.1f\n",
                     scenario, workers, lf_r.median, mutex_r.median);
        behind++;
      }
    }
  }
  reporter.MetaBool("pinned", pinned.load());
  const bool written = reporter.WriteFile();
  return written && behind == 0 ? 0 : 1;
}
