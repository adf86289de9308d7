// Work-stealing policy (paper §5.3, Table 4: "Skyloft Work-Stealing
// (Preemptive)", 150 LOC in the original).
//
// Shenango-style: per-worker FIFO deques; an idle worker steals half of a
// random victim's queue. The same policy runs in two modes:
//   - non-preemptive (Shenango-equivalent): tasks run to completion, which
//     suffers head-of-line blocking on heavy-tailed workloads (Fig. 8b)
//   - preemptive: the engine's user-space timer ticks call SchedTimerTick,
//     and any task that has run a full quantum while work is waiting gets
//     preempted — the paper's 5 us quantum gives 1.9x Shenango's load at the
//     same slowdown SLO
#ifndef SRC_POLICIES_WORK_STEALING_H_
#define SRC_POLICIES_WORK_STEALING_H_

#include <vector>

#include "src/base/intrusive_list.h"
#include "src/base/random.h"
#include "src/sched/policy.h"

namespace skyloft {

struct WorkStealingParams {
  // Preemption quantum consulted on timer ticks; kInfiniteSliceWs disables.
  DurationNs quantum = Micros(5);
  std::uint64_t steal_seed = 1;
};

inline constexpr DurationNs kInfiniteSliceWs = INT64_MAX;

class WorkStealingPolicy : public SchedPolicy {
 public:
  explicit WorkStealingPolicy(WorkStealingParams params)
      : params_(params),
        rng_(params.steal_seed),
        quantum_(NormalizeQuantum(params.quantum, kInfiniteSliceWs)) {}

  SKYLOFT_NO_SWITCH void SchedInit(EngineView* view) override;
  SKYLOFT_NO_SWITCH void TaskInit(SchedItem* task) override;
  SKYLOFT_NO_SWITCH void TaskEnqueue(SchedItem* task, unsigned flags, int worker_hint) override;
  SKYLOFT_NO_SWITCH SchedItem* TaskDequeue(int worker) override;
  SKYLOFT_NO_SWITCH bool SchedTimerTick(int worker, SchedItem* current, DurationNs ran_ns) override;
  SKYLOFT_NO_SWITCH void SchedBalance(int worker) override;
  SKYLOFT_NO_SWITCH std::size_t QueuedTasks() const override { return queued_; }
  const char* Name() const override { return "skyloft-ws"; }

  // FIFO + steal-half is exactly what the host's lock-free driver implements,
  // so the host runtime runs this policy without ever entering the methods
  // above (the sim engines still drive them).
  SKYLOFT_NO_SWITCH bool SupportsLockFree() const override { return true; }

  // Live quantum control. This object serves one Runtime or Engine at a
  // time. Once a Runtime holds it, change its quantum only through
  // Runtime::SetQuantum: the host's lock-free driver reads this value once
  // and then holds the authoritative copy, so a direct SetQuantum here is
  // not seen by it (and on the mutex driver it would race HostSched's
  // mutex).
  SKYLOFT_NO_SWITCH void SetQuantum(DurationNs quantum_ns) override {
    quantum_ = NormalizeQuantum(quantum_ns, kInfiniteSliceWs);
  }
  SKYLOFT_NO_SWITCH DurationNs QuantumFor() const override { return quantum_; }

  std::uint64_t steals() const { return steals_; }

 private:
  struct WsData {
    DurationNs ran = 0;
  };

  WorkStealingParams params_;
  Rng rng_;
  DurationNs quantum_;
  std::vector<IntrusiveList<SchedItem>> queues_;
  std::size_t queued_ = 0;
  std::uint64_t steals_ = 0;
  int next_queue_ = 0;
};

}  // namespace skyloft

#endif  // SRC_POLICIES_WORK_STEALING_H_
