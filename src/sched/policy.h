// The general scheduling-operations interface (paper §3.4, Table 2).
//
// A scheduling policy implements these operations and nothing else; the
// engines drive it. Two kinds of engine exist:
//   - the simulated engines (src/libos: per-CPU with user-space timer
//     interrupts, or centralized with a dispatcher), scheduling simulated
//     Tasks, and
//   - the host runtime (src/runtime), scheduling real user-level threads
//     through the HostSched adapter.
// Both take the policy the same way: a non-owning SchedPolicy* (a sim
// engine's constructor argument, RuntimeOptions::policy on the host). One
// policy object serves one engine or Runtime at a time.
// This header deliberately depends only on src/base: the same policy
// translation units compile into both substrates. That is the paper's
// central claim of generality — RR, CFS, EEVDF, Shinjuku,
// Shinjuku+Shenango and preemptive work stealing are each a few hundred
// lines against this interface.
#ifndef SRC_SCHED_POLICY_H_
#define SRC_SCHED_POLICY_H_

#include <cstddef>

#include "src/base/compiler.h"
#include "src/base/time.h"
#include "src/sched/sched_item.h"

namespace skyloft {

// Read-only view of engine state offered to policies (e.g. for stealing
// decisions and congestion detection). Implemented by the simulated Engine
// and by the host runtime's HostSched.
class EngineView {
 public:
  virtual ~EngineView() = default;
  virtual TimeNs Now() const = 0;
  virtual int NumWorkers() const = 0;
  // The physical core (sim) or global worker index (host) behind a worker.
  virtual int WorkerCore(int index) const = 0;
  virtual bool IsWorkerIdle(int index) const = 0;
};

// Every Table 2 operation is SKYLOFT_NO_SWITCH: policies run under the host
// runtime's shard locks (or inside the sim event loop) and must never reach
// a context-switch primitive. skylint enforces this transitively over every
// policy implementation.
class SchedPolicy {
 public:
  virtual ~SchedPolicy() = default;

  // sched_init: policy-defined scheduler state.
  SKYLOFT_NO_SWITCH virtual void SchedInit(EngineView* view) { view_ = view; }

  // task_init / task_terminate: manage the policy-defined field of a task.
  SKYLOFT_NO_SWITCH virtual void TaskInit(SchedItem* item) {}
  SKYLOFT_NO_SWITCH virtual void TaskTerminate(SchedItem* item) {}

  // task_enqueue: puts a task on a runqueue. `worker_hint` is the engine
  // worker index the event originated from (kInvalidCore-like -1 when none).
  SKYLOFT_NO_SWITCH virtual void TaskEnqueue(SchedItem* item, unsigned flags,
                                             int worker_hint) = 0;

  // task_dequeue: selects and removes the next task for the given worker.
  // Centralized policies ignore `worker` (single global queue).
  SKYLOFT_NO_SWITCH virtual SchedItem* TaskDequeue(int worker) = 0;

  // sched_timer_tick: updates policy state on each tick; returns true when
  // the current task must be preempted. `ran_ns` is wall time the task has
  // run since it was last charged; `current` may be nullptr (idle tick).
  SKYLOFT_NO_SWITCH virtual bool SchedTimerTick(int worker, SchedItem* current,
                                                DurationNs ran_ns) = 0;

  // sched_balance: per-CPU only; invoked when `worker` would go idle.
  SKYLOFT_NO_SWITCH virtual void SchedBalance(int worker) {}

  // ---- Lock-free driver capability ----
  //
  // A policy that returns true declares that its scheduling discipline is
  // exactly "per-worker FIFO + steal-half when idle": the host runtime may
  // then bypass the policy's Table 2 methods entirely and run the task flow
  // on its lock-free two-level runqueue (MPSC mailbox -> Chase-Lev deque,
  // DESIGN.md section 9). The policy object still provides Name() and the
  // initial preemption quantum (QuantumFor, below); its TaskEnqueue/
  // TaskDequeue are never called. Policies with cross-task ordering state
  // (CFS, EEVDF, RR's cyclic order, centralized dispatch) must keep the
  // default false and ride the shard-mutex driver.
  SKYLOFT_NO_SWITCH virtual bool SupportsLockFree() const { return false; }

  // ---- Dynamic quantum control ----
  //
  // Updates the policy's preemption quantum (time slice / granularity), one
  // value for every worker. Drivers call this under the same serialization
  // as the Table 2 methods (the mutex on the host, the event loop in the
  // sim), so implementations may use plain fields; the change takes effect
  // from the next tick/enqueue that consults it — in-flight slices are not
  // re-evaluated retroactively. `quantum_ns` <= 0 means "infinite" (disable
  // tick preemption). The default ignores the request, for policies with no
  // quantum notion (e.g. FIFO).
  SKYLOFT_NO_SWITCH virtual void SetQuantum(DurationNs quantum_ns) {}

  // The quantum currently in force (same units; a policy reports "infinite"
  // as its own sentinel); 0 when the policy has no quantum notion.
  SKYLOFT_NO_SWITCH virtual DurationNs QuantumFor() const { return 0; }

  // Number of runnable tasks currently queued (all queues). Used by engines
  // for work-conservation checks and by core allocators for congestion.
  SKYLOFT_NO_SWITCH virtual std::size_t QueuedTasks() const = 0;

  virtual const char* Name() const = 0;

 protected:
  EngineView* view_ = nullptr;
};

// The built-in policies' quantum normalization: a request <= 0 becomes the
// policy's `infinite` sentinel.
constexpr DurationNs NormalizeQuantum(DurationNs quantum_ns, DurationNs infinite) {
  return quantum_ns <= 0 ? infinite : quantum_ns;
}

}  // namespace skyloft

#endif  // SRC_SCHED_POLICY_H_
