// Completely Fair Scheduler policy (paper §5.1, Table 4: "Skyloft CFS",
// 430 LOC in the original; kernel/sched/fair.c is 6592).
//
// Faithful to the CFS mechanisms that matter at schbench timescales:
//   - per-worker runqueues ordered by vruntime
//   - monotonic per-queue min_vruntime
//   - dynamic time slice: sched_latency / nr_runnable, floored at
//     min_granularity
//   - sleeper compensation: a waking task's vruntime is placed at
//     min_vruntime - sched_latency/2 (clamped), which is why CFS beats RR on
//     wakeup latency in Fig. 5
#ifndef SRC_POLICIES_CFS_H_
#define SRC_POLICIES_CFS_H_

#include <set>
#include <vector>

#include "src/sched/policy.h"

namespace skyloft {

struct CfsParams {
  DurationNs min_granularity = Micros(12) + 500;  // 12.5 us (Table 5, tuned)
  DurationNs sched_latency = Micros(50);          // 50 us (Table 5, tuned)
};

class CfsPolicy : public SchedPolicy {
 public:
  explicit CfsPolicy(CfsParams params)
      : params_(params), quantum_(NormalizeQuantum(params.min_granularity, INT64_MAX)) {}

  SKYLOFT_NO_SWITCH void SchedInit(EngineView* view) override;
  SKYLOFT_NO_SWITCH void TaskInit(SchedItem* task) override;
  SKYLOFT_NO_SWITCH void TaskEnqueue(SchedItem* task, unsigned flags, int worker_hint) override;
  SKYLOFT_NO_SWITCH SchedItem* TaskDequeue(int worker) override;
  SKYLOFT_NO_SWITCH bool SchedTimerTick(int worker, SchedItem* current, DurationNs ran_ns) override;
  SKYLOFT_NO_SWITCH void SchedBalance(int worker) override;
  SKYLOFT_NO_SWITCH std::size_t QueuedTasks() const override { return queued_; }
  const char* Name() const override { return "skyloft-cfs"; }

  // An explicit SetQuantum pins the slice, bypassing the sched_latency /
  // nr_runnable formula (the controller wants a direct knob, not one diluted
  // by queue depth); before any SetQuantum the quantum reported is the
  // min_granularity floor and the formula governs.
  SKYLOFT_NO_SWITCH void SetQuantum(DurationNs quantum_ns) override {
    quantum_ = NormalizeQuantum(quantum_ns, INT64_MAX);
    quantum_explicit_ = true;
  }
  SKYLOFT_NO_SWITCH DurationNs QuantumFor() const override { return quantum_; }

 private:
  struct CfsData {
    DurationNs vruntime = 0;
    DurationNs slice_used = 0;
  };

  struct VruntimeLess {
    bool operator()(const SchedItem* a, const SchedItem* b) const;
  };

  struct Runqueue {
    std::multiset<SchedItem*, VruntimeLess> tree;
    DurationNs min_vruntime = 0;
  };

  Runqueue& rq(int worker) { return queues_[static_cast<std::size_t>(worker)]; }
  DurationNs SliceFor(const Runqueue& queue) const;

  CfsParams params_;
  DurationNs quantum_;
  bool quantum_explicit_ = false;  // SetQuantum was called
  std::vector<Runqueue> queues_;
  std::size_t queued_ = 0;
  int next_queue_ = 0;
};

}  // namespace skyloft

#endif  // SRC_POLICIES_CFS_H_
