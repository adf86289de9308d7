// Round-Robin / FIFO policy (paper §5.1, Table 4: "Skyloft Round-Robin",
// 141 LOC in the original).
//
// Per-worker FIFO queues with time slicing: a task that has run for a full
// time slice is preempted and requeued at the tail. An infinite time slice
// degenerates to FIFO (the "Skyloft-FIFO" series of Fig. 6).
#ifndef SRC_POLICIES_ROUND_ROBIN_H_
#define SRC_POLICIES_ROUND_ROBIN_H_

#include <vector>

#include "src/base/intrusive_list.h"
#include "src/sched/policy.h"

namespace skyloft {

inline constexpr DurationNs kInfiniteSlice = INT64_MAX;

class RoundRobinPolicy : public SchedPolicy {
 public:
  // `time_slice` of kInfiniteSlice disables slice-based preemption (FIFO).
  explicit RoundRobinPolicy(DurationNs time_slice)
      : time_slice_(NormalizeQuantum(time_slice, kInfiniteSlice)) {}

  SKYLOFT_NO_SWITCH void SchedInit(EngineView* view) override;
  SKYLOFT_NO_SWITCH void TaskInit(SchedItem* task) override;
  SKYLOFT_NO_SWITCH void TaskEnqueue(SchedItem* task, unsigned flags, int worker_hint) override;
  SKYLOFT_NO_SWITCH SchedItem* TaskDequeue(int worker) override;
  SKYLOFT_NO_SWITCH bool SchedTimerTick(int worker, SchedItem* current, DurationNs ran_ns) override;
  SKYLOFT_NO_SWITCH void SchedBalance(int worker) override;
  SKYLOFT_NO_SWITCH std::size_t QueuedTasks() const override { return queued_; }
  const char* Name() const override { return "skyloft-rr"; }

  SKYLOFT_NO_SWITCH void SetQuantum(DurationNs quantum_ns) override {
    time_slice_ = NormalizeQuantum(quantum_ns, kInfiniteSlice);
  }
  SKYLOFT_NO_SWITCH DurationNs QuantumFor() const override { return time_slice_; }

 private:
  struct RrData {
    DurationNs slice_used = 0;
  };

  DurationNs time_slice_;
  std::vector<IntrusiveList<SchedItem>> queues_;
  std::size_t queued_ = 0;
  int next_queue_ = 0;  // round-robin placement for hintless tasks
};

}  // namespace skyloft

#endif  // SRC_POLICIES_ROUND_ROBIN_H_
