// Host-side adapter for the Table 2 scheduling-operations interface.
//
// The sim engines (src/libos) drive a SchedPolicy from a single event loop;
// the host runtime has N real worker pthreads, so the policy must be driven
// concurrently. HostSched drives one policy instance — the caller's, like a
// sim engine's, or its own default work stealing — through one of two
// interchangeable drivers behind one per-worker operation surface:
//
//   - the shard-mutex driver: the policy covers every worker and every
//     policy call happens under HostSched's mutex. This is the general path
//     — any Table 2 policy (CFS, EEVDF, RR, ...) runs here unchanged.
//   - the lock-free driver: a two-level runqueue per worker — an intrusive
//     MPSC mailbox absorbing remote submissions plus a Chase-Lev deque the
//     owner drains it into — with steal-half batching when a worker runs dry
//     (DESIGN.md section 9). A local submission that finds the worker's
//     queues empty skips both through an owner-only run-next slot. No mutex
//     anywhere on the task path. Selected when the policy declares
//     SchedPolicy::SupportsLockFree() (the work-stealing default does); the
//     policy object then only supplies its name and initial preemption
//     quantum.
//
// Locking model (shard-mutex driver): callers on a uthread stack must hold a
// Runtime::PreemptGuard (a preemption signal landing while the mutex is held
// would deadlock the worker). The runtime's scheduler stack never takes a
// preemption (its worker runs no uthread, or one whose preempt depth is
// raised), so WorkerLoop-side calls are safe by construction. The lock-free
// driver has no locks to deadlock on; callers keep the same guard discipline
// whichever driver the policy selected.
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
#include "src/base/time.h"
#include "src/sched/policy.h"

namespace skyloft {

// HostSched is also the EngineView its policy schedules through: the policy
// sees the runtime's worker indices unchanged.
class HostSched : public EngineView {
 public:
  // `policy` is not owned and must outlive the HostSched; null runs a
  // default-constructed WorkStealingPolicy.
  HostSched(int workers, SchedPolicy* policy);
  ~HostSched() override;  // out of line: LfWorker is an incomplete type here

  // Every operation below runs policy code under the mutex (shard-mutex
  // driver) or manipulates lock-free queues whose progress other workers
  // depend on (lock-free driver); either way it must never reach a switch
  // primitive — hence the blanket SKYLOFT_NO_SWITCH.

  // task_enqueue. `worker_hint` is a worker index (or -1): a valid hint
  // routes to that worker's runqueue, no hint lets the driver place the task
  // (lock-free: idle-first placement; shard-mutex: the policy places it).
  // With kEnqueueNew in `flags`, task_init runs first under the same lock,
  // so the spawn path pays one lock round trip (lock-free: TaskInit is
  // policy-free, this is a plain mailbox push).
  SKYLOFT_NO_SWITCH void Enqueue(SchedItem* item, unsigned flags, int worker_hint);

  // task_enqueue onto `worker`'s runqueue, called on that worker's own
  // thread (a uthread it runs, or its scheduler stack): Unpark, Spawn. The
  // lock-free driver puts the item in the worker's run-next slot when the
  // slot, the mailbox and the deque are all empty — plain stores, no CAS —
  // and in the mailbox otherwise, so the item never overtakes waiting work.
  // Thieves cannot see the slot. The shard-mutex driver treats this as
  // Enqueue(item, flags, worker).
  SKYLOFT_NO_SWITCH void EnqueueLocal(SchedItem* item, unsigned flags, int worker);

  // task_terminate + task_dequeue fused: retire a finished item and fetch
  // the worker's next task in one acquisition (the exit fast path).
  SKYLOFT_NO_SWITCH SchedItem* Retire(SchedItem* dead, int worker);

  // task_dequeue for `worker`; on an empty queue invokes sched_balance /
  // steal-half and retries (the paper's idle path). A rescue counts as a
  // steal.
  SKYLOFT_NO_SWITCH SchedItem* Dequeue(int worker);

  // EnqueueLocal(item, flags, worker) + Dequeue(worker) fused — the
  // scheduler's yield-completion fast path. May return a different item
  // than `item` (including nullptr if a thief migrated it before we could
  // re-fetch).
  SKYLOFT_NO_SWITCH SchedItem* Requeue(SchedItem* item, unsigned flags, int worker);

  // sched_timer_tick for `worker`; true => preempt `current`.
  SKYLOFT_NO_SWITCH bool Tick(int worker, SchedItem* current, DurationNs ran_ns);

  // Live quantum control (the adaptive controller's knob): one quantum for
  // every worker. Callable from any thread: the lock-free driver stores one
  // atomic that Tick rereads every invocation; the shard-mutex driver
  // forwards to the policy under the mutex. `quantum_ns` <= 0 disables tick
  // preemption.
  SKYLOFT_NO_SWITCH void SetQuantum(DurationNs quantum_ns);
  // The quantum in force, normalized as the policy normalizes it: a
  // disabled quantum reads as the policy's infinite sentinel.
  SKYLOFT_NO_SWITCH DurationNs QuantumFor() const;

  // Placement target for submissions that originate off-runtime (external
  // Unpark, Run()'s main thread): first idle worker (one bitmap word scan),
  // else — lock-free — the worker with the fewest waiting items (deque,
  // mailbox and run-next slot), or — shard-mutex — -1, which leaves
  // placement to the policy.
  SKYLOFT_NO_SWITCH int ExternalTarget() const;

  SKYLOFT_NO_SWITCH void SetIdle(int worker, bool idle);

  std::uint64_t steals() const { return steals_->Value(); }
  const char* PolicyName() const { return policy_->Name(); }
  int workers() const { return workers_; }
  // True when this instance runs the lock-free two-level-runqueue driver.
  bool lock_free() const { return lock_free_; }

  // EngineView, for the policy.
  TimeNs Now() const override { return HostNowNs(); }
  int NumWorkers() const override { return workers_; }
  int WorkerCore(int index) const override { return index; }
  bool IsWorkerIdle(int index) const override { return idle_map_.Test(index); }

 private:
  struct LfWorker;  // lock-free driver state (mailbox + deque + run-next slot + rng)

  // task_dequeue, falling back to sched_balance and one retry (the paper's
  // idle path); a rescue counts as a steal. Caller holds `mu_`.
  SKYLOFT_NO_SWITCH SchedItem* DequeueLocked(int worker);

  // Lock-free driver internals (see host_sched.cpp).
  SKYLOFT_NO_SWITCH void LfEnqueue(SchedItem* item, int target);
  SKYLOFT_NO_SWITCH void LfEnqueueLocal(SchedItem* item, int worker);
  SKYLOFT_NO_SWITCH static std::int64_t LfWaiting(const LfWorker& lw);
  SKYLOFT_NO_SWITCH SchedItem* LfDequeue(int worker);
  SKYLOFT_NO_SWITCH SchedItem* LfStealHalf(int worker);

  int workers_;
  bool lock_free_ = false;

  // The policy: the caller's, or owned_ when the caller passed none. The
  // shard-mutex driver calls it under mu_; the lock-free driver reads only
  // its name and, at construction, its quantum.
  std::unique_ptr<SchedPolicy> owned_;
  SchedPolicy* policy_ = nullptr;
  mutable std::mutex mu_;

  // ---- lock-free driver ----
  std::vector<std::unique_ptr<LfWorker>> lf_;
  // The quantum the lock-free Tick enforces; kInfiniteSliceWs never
  // preempts. Written by SetQuantum (any thread), reread relaxed on every
  // tick — a tick racing an update sees either quantum, both valid moments
  // ago.
  std::atomic<DurationNs> lf_quantum_{0};

  // Worker state the policies read through EngineView and ExternalTarget
  // reads for placement.
  AtomicBitmap idle_map_;

  MetricGroup metrics_{"host_sched"};
  // All owned by metrics_; one cache-line lane per worker so hot-path
  // accounting never contends on a shared counter word.
  ShardedCounter* steals_ = nullptr;           // items gained via balance/steal
  ShardedCounter* mailbox_drains_ = nullptr;   // non-empty mailbox drains
  ShardedCounter* steal_attempts_ = nullptr;   // Steal() calls (any outcome)
  ShardedCounter* steal_successes_ = nullptr;  // Steal() calls that won an item
  ShardedCounter* cas_retries_ = nullptr;      // mailbox-push CAS retries
};

}  // namespace skyloft

#endif  // SRC_RUNTIME_HOST_SCHED_H_
