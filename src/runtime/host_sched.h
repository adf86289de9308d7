// Host-side adapter for the Table 2 scheduling-operations interface.
//
// The sim engines (src/libos) drive a SchedPolicy from a single event loop;
// the host runtime has N real worker pthreads, so the policy must be driven
// concurrently. HostSched owns two interchangeable drivers behind one
// per-worker operation surface:
//
//   - the shard-mutex driver: one locked shard owning a policy instance that
//     covers every worker. Every policy call happens under the shard's
//     mutex. This is the general path — any Table 2 policy (CFS, EEVDF, RR,
//     ...) runs here unchanged.
//   - the lock-free driver: a two-level runqueue per worker — an intrusive
//     MPSC mailbox absorbing all submissions plus a Chase-Lev deque the owner
//     drains it into — with steal-half batching when a worker runs dry
//     (DESIGN.md section 9). No mutex anywhere on the task path. Selected
//     when the policy declares SchedPolicy::SupportsLockFree() (the
//     work-stealing default does); the policy object then only supplies its
//     name and preemption quantum.
//
// Locking model (shard-mutex driver): callers on a uthread stack must hold a
// Runtime::PreemptGuard (a preemption signal landing while a shard lock is
// held would deadlock the worker). The runtime's scheduler stack always runs
// with preemption disabled, so WorkerLoop-side calls are safe by
// construction. The lock-free driver has no locks to deadlock on, but the
// same guard discipline applies so the two drivers stay swappable.
#ifndef SRC_RUNTIME_HOST_SCHED_H_
#define SRC_RUNTIME_HOST_SCHED_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/base/bitmap.h"
#include "src/base/compiler.h"
#include "src/base/metrics.h"
#include "src/sched/policy.h"

namespace skyloft {

// Which policy the host runtime schedules uthreads with (Table 4 policies
// that make sense without a centralized dispatcher thread).
enum class RuntimePolicy {
  kWorkStealing,  // per-worker FIFO + steal-half; the pre-refactor behavior
  kFifo,          // run-to-completion round-robin placement, no preemption
  kRoundRobin,    // FIFO + slice-based preemption via the signal timer
  kCfs,
  kEevdf,
};

struct HostSchedOptions {
  RuntimePolicy policy = RuntimePolicy::kWorkStealing;
  // Slice/quantum override in microseconds; 0 keeps the policy default
  // (12.5 us RR slice, 5 us work-stealing quantum).
  std::int64_t time_slice_us = 0;
  // Non-owning: schedule with this policy instance instead of constructing
  // one from `policy`. The caller keeps the object alive for the lifetime of
  // the Runtime.
  SchedPolicy* custom_policy = nullptr;
  // Pin the shard-mutex driver even when the policy supports the lock-free
  // one (benchmark baselines, driver-parity tests).
  bool force_locked = false;
};

class HostSched {
 public:
  HostSched(int workers, const HostSchedOptions& options);
  ~HostSched();  // out of line: Shard/LfWorker are incomplete types here

  // Every operation below runs policy code under a shard mutex (shard-mutex
  // driver) or manipulates lock-free queues whose progress other workers
  // depend on (lock-free driver); either way it must never reach a switch
  // primitive — hence the blanket SKYLOFT_NO_SWITCH.

  // task_enqueue. `worker_hint` is a worker index (or -1): a valid hint
  // routes to that worker's runqueue, no hint lets the driver place the task
  // (lock-free: idle-first placement; shard-mutex: the policy places it).
  SKYLOFT_NO_SWITCH void Enqueue(SchedItem* item, unsigned flags, int worker_hint);

  // task_init + task_enqueue fused: a new item is initialized by the same
  // policy instance that first queues it, and the spawn path pays one lock
  // round trip instead of two (lock-free: TaskInit is policy-free, this is
  // a plain mailbox push).
  SKYLOFT_NO_SWITCH void EnqueueNew(SchedItem* item, unsigned flags, int worker_hint);

  // task_terminate + task_dequeue fused: retire a finished item and fetch
  // the worker's next task in one acquisition (the exit fast path).
  SKYLOFT_NO_SWITCH SchedItem* Retire(SchedItem* dead, int worker);

  // task_dequeue for `worker`; on an empty queue invokes sched_balance /
  // steal-half and retries (the paper's idle path). A rescue counts as a
  // steal.
  SKYLOFT_NO_SWITCH SchedItem* Dequeue(int worker);

  // Enqueue(item, flags, worker) + Dequeue(worker) fused — the scheduler's
  // yield-completion fast path. May return a different item than `item`
  // (including nullptr if a thief migrated it before we could re-fetch).
  SKYLOFT_NO_SWITCH SchedItem* Requeue(SchedItem* item, unsigned flags, int worker);

  // sched_timer_tick for `worker`; true => preempt `current`.
  SKYLOFT_NO_SWITCH bool Tick(int worker, SchedItem* current, DurationNs ran_ns);

  // Live quantum control (the adaptive controller's fast knob). Callable from
  // any thread: the lock-free driver stores per-worker atomics that Tick
  // rereads every invocation; the shard-mutex driver forwards to the policy
  // under the owning shard's lock. `worker` < 0 targets all workers;
  // `quantum_ns` <= 0 (or INT64_MAX) disables tick preemption.
  SKYLOFT_NO_SWITCH void SetQuantum(DurationNs quantum_ns, int worker);
  // The quantum in force for `worker` (lock-free driver: 0 == disabled;
  // shard-mutex driver: the policy's own reporting convention).
  SKYLOFT_NO_SWITCH DurationNs QuantumFor(int worker) const;

  // Placement target for submissions that originate off-runtime (external
  // Unpark, Run()'s main thread): first idle worker (one bitmap word scan),
  // else the worker with the (approximately) shortest queue.
  SKYLOFT_NO_SWITCH int ExternalTarget() const;

  SKYLOFT_NO_SWITCH void SetIdle(int worker, bool idle);

  std::size_t Queued() const;  // approximate under the lock-free driver
  std::uint64_t steals() const { return steals_->Value(); }
  const char* PolicyName() const;
  int workers() const { return workers_; }
  // True when this instance runs the lock-free two-level-runqueue driver.
  bool lock_free() const { return lock_free_; }

 private:
  struct Shard;     // shard-mutex driver state (one policy + mutex)
  struct LfWorker;  // lock-free driver state (mailbox + deque + rng)

  // Lock-free driver internals (see host_sched.cpp).
  SKYLOFT_NO_SWITCH void LfEnqueue(SchedItem* item, int target);
  SKYLOFT_NO_SWITCH SchedItem* LfDequeue(int worker);
  SKYLOFT_NO_SWITCH SchedItem* LfStealHalf(int worker);

  // Per-worker approximate queue length, one cache line per worker (same
  // treatment as ShardedCounter lanes) so enqueue accounting on neighbor
  // workers never false-shares.
  struct alignas(kCacheLineSize) HotLine {
    std::atomic<int> len{0};
  };

  int workers_;
  bool lock_free_ = false;

  // ---- shard-mutex driver ----
  std::unique_ptr<Shard> shard_;

  // ---- lock-free driver ----
  std::vector<std::unique_ptr<LfWorker>> lf_;
  SchedPolicy* lf_policy_ = nullptr;  // name + quantum only; Table 2 unused
  std::unique_ptr<SchedPolicy> lf_owned_;
  // The per-worker lock-free quantum lives in LfWorker::quantum (atomic,
  // reread on every Tick) so SetQuantum takes effect mid-run.

  // Worker state the policies read through EngineView and ExternalTarget
  // reads for placement. approx_len_ tracks per-worker enqueue/dequeue
  // deltas under the shard-mutex driver only (migrations make it
  // approximate); the lock-free driver reads its queues' own state instead
  // and never touches the ledger.
  AtomicBitmap idle_map_;
  std::unique_ptr<HotLine[]> approx_len_;

  MetricGroup metrics_{"host_sched"};
  // All owned by metrics_; one cache-line lane per worker so hot-path
  // accounting never contends on a shared counter word.
  ShardedCounter* steals_ = nullptr;           // items gained via balance/steal
  ShardedCounter* mailbox_drains_ = nullptr;   // non-empty mailbox drains
  ShardedCounter* steal_attempts_ = nullptr;   // Steal() calls (any outcome)
  ShardedCounter* steal_successes_ = nullptr;  // Steal() calls that won an item
  ShardedCounter* cas_retries_ = nullptr;      // mailbox-push CAS retries
};

// Per-worker view of HostSched: what the runtime's WorkerLoop holds.
class HostSchedCore {
 public:
  void Bind(HostSched* sched, int worker) {
    sched_ = sched;
    worker_ = worker;
  }
  SKYLOFT_NO_SWITCH SchedItem* Dequeue() { return sched_->Dequeue(worker_); }
  SKYLOFT_NO_SWITCH void Enqueue(SchedItem* item, unsigned flags) {
    sched_->Enqueue(item, flags, worker_);
  }
  SKYLOFT_NO_SWITCH void EnqueueNew(SchedItem* item, unsigned flags) {
    sched_->EnqueueNew(item, flags, worker_);
  }
  SKYLOFT_NO_SWITCH SchedItem* Requeue(SchedItem* item, unsigned flags) {
    return sched_->Requeue(item, flags, worker_);
  }
  SKYLOFT_NO_SWITCH SchedItem* Retire(SchedItem* dead) { return sched_->Retire(dead, worker_); }
  SKYLOFT_NO_SWITCH bool Tick(SchedItem* current, DurationNs ran_ns) {
    // skylint:allow(switch-in-noswitch) -- HostSched::Tick is shard-locked; name collides with the sim engines' Tick
    return sched_->Tick(worker_, current, ran_ns);
  }
  SKYLOFT_NO_SWITCH void SetIdle(bool idle) { sched_->SetIdle(worker_, idle); }

 private:
  HostSched* sched_ = nullptr;
  int worker_ = 0;
};

}  // namespace skyloft

#endif  // SRC_RUNTIME_HOST_SCHED_H_
