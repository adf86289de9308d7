// Host M:N user-level threading runtime.
//
// This is the part of Skyloft that runs for real on this machine: user
// threads multiplexed over N worker pthreads, a stack pool, and optional
// signal-timer preemption standing in for UINTR (which needs Sapphire
// Rapids hardware — see DESIGN.md). Scheduling decisions are delegated to a
// Table 2 SchedPolicy through the HostSched adapter: the default is the
// work-stealing policy (per-worker FIFO + steal-half), but any registered
// policy — FIFO, RR, CFS, EEVDF, or a caller-supplied instance — can drive
// the same workers via RuntimeOptions::sched. Table 7's threading-operation
// benchmarks measure these primitives.
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
#include <cstdint>
#include <deque>
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

enum class UthreadState : std::uint8_t {
  kRunnable,
  kRunning,
  kBlocked,
  kDone,
};

// UThread embeds SchedItem (runqueue linkage, id, policy data), so the same
// SchedPolicy objects that schedule simulated Tasks schedule real uthreads.
struct UThread : SchedItem {
  std::function<void()> fn;
  void* sp = nullptr;
  std::unique_ptr<unsigned char[]> stack;
  std::size_t stack_size = 0;
  std::atomic<UthreadState> state{UthreadState::kRunnable};
  // Threads waiting in Join(); protected by the runtime's wait lock.
  std::vector<UThread*> joiners;
  bool detached = false;
};

struct RuntimeOptions {
  int workers = 1;
  std::size_t stack_size = 64 * 1024;
  // Preemption timer period; 0 disables preemption (cooperative only). The
  // timer delivers sched_timer_tick to the policy, which decides whether
  // the running uthread is actually preempted.
  std::int64_t preempt_period_us = 0;
  // Policy selection for the host scheduler (defaults to work stealing).
  HostSchedOptions sched{};
  // Per-worker I/O engine cores (epoll readiness feeding
  // WaitForReadable/Writable park-unpark wakeups; DESIGN.md section 10).
  // Off by default so non-network workloads pay nothing — the worker loop
  // only polls when an engine exists.
  bool io_engine = false;
  // Optional scheduling-event tracer (not owned; must outlive the Runtime).
  // Records assignments, occupancy spans, preemptions, and — from inside the
  // signal handler — preemption-signal delivery/deferral instants.
  SchedTracer* tracer = nullptr;
  // Optional adaptive quantum controller (not owned; must outlive Run()).
  // Polled from the housekeeping/timer thread every quantum_poll_us — a slow
  // path off the workers. The caller builds its hooks (typically
  // Runtime::SetQuantum + Runtime::SetPreemptPeriodUs) before Run().
  class QuantumController* quantum_controller = nullptr;
  std::int64_t quantum_poll_us = 5000;
};

class Runtime {
 public:
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
  SKYLOFT_MAY_SWITCH static void Join(UThread* thread);
  SKYLOFT_NO_SWITCH static UThread* Current();

  // Blocks the current uthread until Unpark; used by the sync primitives.
  SKYLOFT_MAY_SWITCH static void Park();
  SKYLOFT_NO_SWITCH static void Unpark(UThread* thread);

  // Blocks the current uthread for at least `duration_us` (the worker runs
  // other uthreads meanwhile; wakeup granularity is the housekeeping tick).
  SKYLOFT_MAY_SWITCH static void SleepFor(std::int64_t duration_us);

  // Scope guard that delays signal-timer preemption (scheduler and sync
  // primitives hold it around non-reentrant sections). The counter lives on
  // the current uthread, not the worker: a guard may span a Park() that
  // resumes on a different worker, and the disable depth must travel with
  // the uthread.
  class PreemptGuard {
   public:
    PreemptGuard();
    ~PreemptGuard();

   private:
    std::atomic<int>* counter_ = nullptr;
  };

  // ---- Live preemption tuning (any thread; the quantum controller's knobs) ----

  // Forwards to HostSched::SetQuantum: per-worker (or all-worker) preemption
  // quantum, effective from the next tick that consults it.
  SKYLOFT_NO_SWITCH void SetQuantum(DurationNs quantum_ns,
                                    int worker = SchedPolicy::kAllWorkers) {
    sched_->SetQuantum(quantum_ns, worker);
  }
  SKYLOFT_NO_SWITCH DurationNs QuantumFor(int worker) const {
    return sched_->QuantumFor(worker);
  }

  // Retunes the preemption-timer period. Only meaningful when the runtime was
  // constructed with preempt_period_us > 0 (the signal handler is installed
  // once, at Run()); <= 0 pauses signal delivery until set positive again.
  void SetPreemptPeriodUs(std::int64_t period_us) {
    preempt_period_us_.store(period_us > 0 ? period_us : 0, std::memory_order_relaxed);
  }
  std::int64_t preempt_period_us() const {
    return preempt_period_us_.load(std::memory_order_relaxed);
  }

  std::uint64_t preemptions() const { return preemptions_->Value(); }
  // Timer signals that landed while the interrupted PC was outside the main
  // executable's text (e.g. inside malloc) and were deferred to the next
  // period instead of preempting — the async-preemption safe-point check.
  std::uint64_t preempt_deferrals() const { return preempt_deferrals_->Value(); }
  // The handler's safe-point test: true when a tick interrupting `pc` must
  // be deferred — outside the executable's own text, inside the switch
  // primitive, or inside a switch-out entry point that reads tl_worker and
  // then acts on it (Current, Yield, Park, ExitCurrent, PreemptGuard's
  // constructor).
  SKYLOFT_SIGNAL_SAFE static bool DefersPreemptionAt(std::uintptr_t pc);
  std::uint64_t steals() const { return sched_->steals(); }
  // Off-runtime submissions (external Unpark, Run()'s main thread) placed
  // via idle-first/least-loaded selection.
  std::uint64_t external_placements() const { return external_placements_->Value(); }
  const char* policy_name() const { return sched_->PolicyName(); }
  // True when the host scheduler selected the lock-free two-level-runqueue
  // driver for the active policy (see HostSched / DESIGN.md section 9).
  bool lock_free_sched() const { return sched_->lock_free(); }

  int workers() const { return options_.workers; }

  // Test hook: Join calls `hook` while it holds the runtime's wait lock
  // (null, the default, calls nothing). Tests spin there to force a
  // preemption tick into the critical section.
  static void SetJoinLockedHookForTest(void (*hook)()) { join_locked_hook_ = hook; }

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
  // Enqueues on the calling worker, or — off-runtime — on the first idle /
  // least-loaded worker. `flags` are SchedPolicy EnqueueFlags.
  SKYLOFT_NO_SWITCH void Schedule(UThread* thread, unsigned flags);
  SKYLOFT_NO_SWITCH UThread* FindWork(RuntimeWorker* worker);
  // Switches from `prev` (null: the worker's scheduler stack) into `next`
  // on `worker`. Every switch into a uthread goes through here — the
  // scheduler's and Park's direct handoff — so the switch-in bookkeeping
  // (on_cpu wait, state, run charge, trace spans, preemption re-arm,
  // sanitizer fiber calls) has one copy.
  SKYLOFT_MAY_SWITCH void SwitchTo(RuntimeWorker* worker, UThread* prev, UThread* next);
  static void UthreadMain(void* arg);
  SKYLOFT_MAY_SWITCH void ExitCurrent();    // terminate the running uthread
  // Signal-timer entry to the scheduler: runs on the interrupted uthread's
  // stack from the SIGURG handler and may switch away from it.
  SKYLOFT_MAY_SWITCH SKYLOFT_SIGNAL_SAFE static void PreemptTick();
  SKYLOFT_NO_SWITCH UThread* AllocUthread(std::function<void()> fn);
  SKYLOFT_NO_SWITCH void FreeUthread(UThread* thread);
  SKYLOFT_SIGNAL_SAFE static void PreemptSignalHandler(int signo, siginfo_t* info, void* uctx);

  RuntimeOptions options_;
  // Live preemption-timer period; seeded from options_.preempt_period_us and
  // retuned by SetPreemptPeriodUs while the timer thread runs.
  std::atomic<std::int64_t> preempt_period_us_{0};
  std::unique_ptr<HostSched> sched_;
  std::vector<std::unique_ptr<RuntimeWorker>> workers_;
  std::vector<std::unique_ptr<IoEngine>> engines_;  // one per worker when enabled
  std::vector<std::thread> worker_threads_;
  std::atomic<std::int64_t> live_uthreads_{0};
  std::atomic<bool> stopping_{false};

  std::mutex wait_lock_;  // protects joiners lists

  std::mutex sleep_lock_;
  std::multimap<std::chrono::steady_clock::time_point, UThread*> sleepers_;

  std::mutex pool_lock_;
  std::vector<UThread*> free_pool_;
  // Raw storage blocks: each holds a placement-new'd UThread plus its
  // internal handshake word. UThreads are recycled, never destroyed, until
  // the runtime itself is.
  std::vector<std::unique_ptr<unsigned char[]>> uthread_storage_;

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

  static inline void (*join_locked_hook_)() = nullptr;
};

}  // namespace skyloft

#endif  // SRC_RUNTIME_UTHREAD_H_
