// Host M:N user-level threading runtime.
//
// This is the part of Skyloft that runs for real on this machine: user
// threads multiplexed over N worker pthreads, a stack pool, and optional
// signal-timer preemption standing in for UINTR (which needs Sapphire
// Rapids hardware — see DESIGN.md). Scheduling decisions are delegated to a
// Table 2 SchedPolicy through the HostSched adapter: the default is the
// work-stealing policy (per-worker FIFO + steal-half), but any SchedPolicy
// object — FIFO, RR, CFS, EEVDF or the caller's own — can drive the same
// workers via RuntimeOptions::policy, exactly as it drives a sim engine.
// Table 7's threading-operation benchmarks measure these primitives.
//
// API sketch (all static calls are valid only inside Runtime::Run):
//   Runtime rt(options);
//   rt.Run([] {
//     UThread* t = Runtime::Spawn([] { ... });
//     Runtime::Yield();
//     Runtime::Join(t);
//   });
#ifndef SRC_RUNTIME_UTHREAD_H_
#define SRC_RUNTIME_UTHREAD_H_

#include <signal.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/base/compiler.h"
#include "src/base/metrics.h"
#include "src/base/trace.h"
#include "src/runtime/host_sched.h"
#include "src/runtime/io_engine.h"
#include "src/sched/sched_item.h"

namespace skyloft {

class Runtime;
struct RuntimeWorker;

// One record per uthread, recycled through the runtime's free pool. UThread
// embeds SchedItem (runqueue linkage, id, policy data), so the same
// SchedPolicy objects that schedule simulated Tasks schedule real uthreads.
// Its stack is RuntimeOptions::stack_size bytes.
struct UThread : SchedItem {
  // Park handshake states (see Runtime::Park/Unpark). Park CASes running ->
  // parked on its own stack; whichever Unpark then sees parked owns the
  // wakeup. An Unpark that finds the uthread running leaves a pending token
  // its next Park consumes.
  static constexpr int kParkRunning = 0;
  static constexpr int kParkUnparkPending = 1;
  static constexpr int kParkParked = 2;
  // The join word's closing value: ExitCurrent swaps it into `joiners`, and
  // into each released joiner's `join_next`.
  static inline UThread* const kExited = reinterpret_cast<UThread*>(std::uintptr_t{1});

  std::function<void()> fn;
  void* sp = nullptr;
  std::unique_ptr<unsigned char[]> stack;
  std::atomic<int> park{kParkRunning};
  // True from the moment a worker switches into this uthread until the
  // switch out has left its stack (skyloft_ctx_switch clears it). SwitchTo
  // waits for it before switching in.
  std::atomic<bool> on_cpu{false};
  // Preempt-disable depth: 0 => the signal handler may preempt this uthread.
  // PreemptGuard raises it, and so does every switch-out (Yield, PreemptTick,
  // Park, ExitCurrent) until the uthread is back and has finished landing.
  // A fresh uthread starts at 1, lowered by UthreadMain. So a uthread that
  // is not running always has a raised depth, and a tick on the scheduler
  // stack, which sees one of those as its worker's `current`, defers.
  // Per-uthread because a guard can span a Park() that resumes on a
  // different worker.
  std::atomic<int> preempt_count{1};
  // The join word: a lock-free stack of the uthreads waiting in Join() for
  // this one, linked through their `join_next`, or kExited once this
  // uthread has exited. Null while it runs with no joiner.
  std::atomic<UThread*> joiners{nullptr};
  // This uthread's link while it waits in Join(): the next joiner of the
  // same target, until the exiting target stores kExited here to release it.
  std::atomic<UThread*> join_next{nullptr};
  void* tsan_fiber = nullptr;
  // This uthread's ASan fake-stack handle, saved while it is switched out.
  // Null on first entry and after an exit (ExitCurrent destroys it).
  void* asan_fake_stack = nullptr;
};

struct RuntimeOptions {
  // Worker pthreads, one per CPU: Run pins worker i to the i-th highest CPU
  // of the calling thread's affinity mask when that mask holds at least
  // `workers` CPUs, and leaves every worker unpinned on the caller's mask
  // otherwise (DESIGN.md section 9).
  int workers = 1;
  std::size_t stack_size = 64 * 1024;
  // Preemption timer period; 0 disables preemption (cooperative only). Each
  // worker arms its own timer, which delivers sched_timer_tick to the
  // policy; the policy decides whether the running uthread is preempted.
  // A positive period below Runtime::kMinPreemptPeriodUs is refused.
  std::int64_t preempt_period_us = 0;
  // The policy the host scheduler runs (not owned; it must outlive the
  // Runtime and serve no other Runtime or Engine meanwhile). Null runs a
  // default WorkStealingPolicy.
  SchedPolicy* policy = nullptr;
  // Per-worker I/O engine cores (epoll readiness feeding
  // WaitForReadable/Writable park-unpark wakeups; DESIGN.md section 10).
  // Off by default so non-network workloads pay nothing — the worker loop
  // only polls when an engine exists.
  bool io_engine = false;
  // Optional scheduling-event tracer (not owned; must outlive the Runtime).
  // Records assignments, occupancy spans, preemptions, and — from inside the
  // signal handler — preemption-signal delivery/deferral instants.
  SchedTracer* tracer = nullptr;
};

class Runtime {
 public:
  // The shortest preemption period the constructor accepts. Measured on a
  // 4-thread x86-64 VM (Linux 6.18, Release, round robin with a 1 us slice,
  // busy uthreads in executable text, 1 and 2 workers): 13 and 15 us
  // delivered 91-99% of the configured ticks. At 12 us it was 75%, at 10 us
  // 12-38%, at 5 us 10-15%. At 2 us the worker livelocked: a tick costs
  // more than the period, so no uthread made progress.
  static constexpr std::int64_t kMinPreemptPeriodUs = 15;

  explicit Runtime(RuntimeOptions options);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // Runs `main_fn` as the first user thread and returns when every user
  // thread has finished.
  void Run(std::function<void()> main_fn);

  // ---- Callable from inside user threads ----
  SKYLOFT_NO_SWITCH static UThread* Spawn(std::function<void()> fn);
  SKYLOFT_MAY_SWITCH static void Yield();
  // Returns once `thread` has exited. Any number of uthreads may join one
  // target, but each Join must begin before the target's record is recycled
  // by a later Spawn.
  SKYLOFT_MAY_SWITCH static void Join(UThread* thread);
  SKYLOFT_NO_SWITCH static UThread* Current();

  // Blocks the current uthread until Unpark; used by the sync primitives.
  SKYLOFT_MAY_SWITCH static void Park();
  SKYLOFT_NO_SWITCH static void Unpark(UThread* thread);

  // Blocks the current uthread for at least `duration_us` (the worker runs
  // other uthreads meanwhile). Run()'s calling thread wakes each sleeper at
  // its deadline.
  SKYLOFT_MAY_SWITCH static void SleepFor(std::int64_t duration_us);

  // Scope guard that delays signal-timer preemption (scheduler and sync
  // primitives hold it around non-reentrant sections). It raises the
  // uthread's one preempt-disable depth, the same counter the switch-out
  // paths raise: the depth lives on the uthread, not the worker, because a
  // guard may span a Park() that resumes on a different worker.
  class PreemptGuard {
   public:
    PreemptGuard();
    ~PreemptGuard();

   private:
    std::atomic<int>* counter_ = nullptr;
  };

  // ---- Live preemption tuning (any thread; the quantum controller's knobs) ----

  // Forwards to HostSched::SetQuantum: the one preemption quantum every
  // worker enforces, effective from the next tick that consults it. The
  // only way to retune the policy a Runtime holds; QuantumFor reports a
  // disabled quantum as the policy's INT64_MAX-style sentinel.
  SKYLOFT_NO_SWITCH void SetQuantum(DurationNs quantum_ns) { sched_->SetQuantum(quantum_ns); }
  SKYLOFT_NO_SWITCH DurationNs QuantumFor() const { return sched_->QuantumFor(); }

  std::uint64_t preemptions() const { return preemptions_->Value(); }
  // Timer ticks a worker received but did not turn into a scheduler entry:
  // no uthread was running, the uthread's preempt depth was raised (it held
  // a PreemptGuard, or was switching in or out), the signal landed off the
  // uthread's stack, or the interrupted PC failed the safe-point check
  // (outside the executable's text, e.g. inside malloc). Each such tick is
  // also traced as kDeferred; the next period retries.
  std::uint64_t preempt_deferrals() const { return preempt_deferrals_->Value(); }
  // The handler's safe-point test: true when a tick interrupting `pc` must
  // be deferred — outside the executable's own text, inside the switch
  // primitive, or inside a switch-out entry point that reads tl_worker and
  // then acts on it (Current, Yield, Park, ExitCurrent, PreemptGuard's
  // constructor).
  SKYLOFT_SIGNAL_SAFE static bool DefersPreemptionAt(std::uintptr_t pc);
  std::uint64_t steals() const { return sched_->steals(); }
  // Off-runtime submissions (external Unpark, Run()'s main thread), placed
  // by HostSched::ExternalTarget.
  std::uint64_t external_placements() const { return external_placements_->Value(); }
  const char* policy_name() const { return sched_->PolicyName(); }
  // True when the host scheduler selected the lock-free two-level-runqueue
  // driver for the active policy (see HostSched / DESIGN.md section 9).
  bool lock_free_sched() const { return sched_->lock_free(); }

  int workers() const { return options_.workers; }

  // The I/O engine core owned by `worker` (null unless RuntimeOptions::
  // io_engine). Servers register SO_REUSEPORT listeners here, one per
  // worker, to shard connections at accept time.
  IoEngine* io_engine(int worker) const {
    return engines_.empty() ? nullptr : engines_[static_cast<std::size_t>(worker)].get();
  }

  // Data-path syscall totals across all engines, and the numerator of the
  // bench's syscalls/request column: read + write + accept, as counted by
  // the engines themselves. Zero when the runtime has no I/O engines.
  std::uint64_t io_data_syscalls() const;

 private:
  friend struct RuntimeWorker;

  void WorkerLoop(int index);
  // Enqueues on the calling worker (HostSched::EnqueueLocal), or —
  // off-runtime — where HostSched::ExternalTarget places it. `flags` are
  // SchedPolicy EnqueueFlags.
  SKYLOFT_NO_SWITCH void Schedule(UThread* thread, unsigned flags);
  // Switches from `prev` (null: the worker's scheduler stack) into `next`
  // on `worker`. Every switch into a uthread goes through here — the
  // scheduler's and Park's direct handoff — so the switch-in bookkeeping
  // (on_cpu wait, state, run charge, trace spans, sanitizer fiber calls)
  // has one copy. `next` arrives with its preempt depth raised; it lowers
  // the depth itself once it has landed (Yield, PreemptTick, Park,
  // UthreadMain).
  SKYLOFT_MAY_SWITCH void SwitchTo(RuntimeWorker* worker, UThread* prev, UThread* next);
  static void UthreadMain(void* arg);
  SKYLOFT_MAY_SWITCH void ExitCurrent();    // terminate the running uthread
  // Signal-timer entry to the scheduler: runs on the interrupted uthread's
  // stack from the SIGURG handler and may switch away from it.
  SKYLOFT_MAY_SWITCH SKYLOFT_SIGNAL_SAFE static void PreemptTick();
  SKYLOFT_NO_SWITCH UThread* AllocUthread(std::function<void()> fn);
  SKYLOFT_NO_SWITCH void FreeUthread(UThread* thread);
  SKYLOFT_SIGNAL_SAFE static void PreemptSignalHandler(int signo, siginfo_t* info, void* uctx);
  // Counts a tick the handler declines and traces it as kDeferred.
  SKYLOFT_SIGNAL_SAFE void DeferTick(RuntimeWorker* worker, UThread* current);

  RuntimeOptions options_;
  std::unique_ptr<HostSched> sched_;
  std::vector<std::unique_ptr<RuntimeWorker>> workers_;
  std::vector<std::unique_ptr<IoEngine>> engines_;  // one per worker when enabled
  std::vector<std::thread> worker_threads_;
  std::atomic<std::int64_t> live_uthreads_{0};
  std::atomic<bool> stopping_{false};

  // Sleepers by deadline. Run() waits on sleep_cv_ until the earliest one
  // is due or the last uthread exits; SleepFor notifies it when it inserts
  // a new earliest deadline, and the exit that ends the last uthread
  // notifies it under sleep_lock_.
  std::mutex sleep_lock_;
  std::condition_variable sleep_cv_;
  std::multimap<std::chrono::steady_clock::time_point, UThread*> sleepers_;

  std::mutex pool_lock_;
  std::vector<UThread*> free_pool_;
  // Every UThread this runtime made. They are recycled through free_pool_,
  // never destroyed, until the runtime itself is.
  std::vector<std::unique_ptr<UThread>> uthreads_;

  std::atomic<std::uint64_t> next_uthread_id_{1};

  // Unified metrics (replacing the ad-hoc atomics): the counters live in
  // metrics_ and are registered under the "runtime" prefix. Counter::Inc is
  // async-signal-safe, so the signal handler may bump deferrals directly.
  MetricGroup metrics_{"runtime"};
  Counter* preemptions_ = nullptr;
  Counter* preempt_deferrals_ = nullptr;
  Counter* external_placements_ = nullptr;
  // Lanes shared by every engine (one lane per worker); registered under the
  // "io_engine" prefix only when engines exist.
  MetricGroup io_metrics_{"io_engine"};
  IoEngineStats io_stats_{};

  SchedTracer* tracer_ = nullptr;  // from RuntimeOptions; not owned
};

}  // namespace skyloft

#endif  // SRC_RUNTIME_UTHREAD_H_
