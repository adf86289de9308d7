// EEVDF policy: Earliest Eligible Virtual Deadline First (paper §5.1,
// Table 4: "Skyloft EEVDF", 579 LOC in the original; merged into Linux 6.6).
//
// Implements the Stoica & Abdel-Wahab mechanism with unit weights:
//   - each queue tracks a virtual time V that advances as tasks consume CPU
//   - a task is *eligible* when its vruntime <= V (non-negative lag)
//   - each task carries a virtual deadline vd = vruntime + base_slice
//   - dispatch picks the eligible task with the earliest deadline
//   - a task whose vruntime reaches its deadline is preempted and gets a new
//     deadline one base_slice later
// Unlike CFS there are no wakeup heuristics: a waking task enters with zero
// lag (vruntime = V), which bounds its wait by one base_slice — the reason
// EEVDF's tail wakeup latency beats CFS in Fig. 5.
#ifndef SRC_POLICIES_EEVDF_H_
#define SRC_POLICIES_EEVDF_H_

#include <vector>

#include "src/sched/policy.h"

namespace skyloft {

struct EevdfParams {
  DurationNs base_slice = Micros(12) + 500;  // 12.5 us (Table 5)
};

class EevdfPolicy : public SchedPolicy {
 public:
  // "Infinite" slice sentinel: huge at scheduling timescales (~13 days) but
  // small enough that vruntime + slice can never overflow a signed 64-bit
  // deadline (vruntime grows with accumulated CPU time).
  static constexpr DurationNs kInfiniteSliceEevdf = DurationNs{1} << 50;

  explicit EevdfPolicy(EevdfParams params)
      : params_(params), slice_(NormalizeQuantum(params.base_slice, kInfiniteSliceEevdf)) {}

  SKYLOFT_NO_SWITCH void SchedInit(EngineView* view) override;
  SKYLOFT_NO_SWITCH void TaskInit(SchedItem* task) override;
  SKYLOFT_NO_SWITCH void TaskEnqueue(SchedItem* task, unsigned flags, int worker_hint) override;
  SKYLOFT_NO_SWITCH SchedItem* TaskDequeue(int worker) override;
  SKYLOFT_NO_SWITCH bool SchedTimerTick(int worker, SchedItem* current, DurationNs ran_ns) override;
  SKYLOFT_NO_SWITCH void SchedBalance(int worker) override;
  SKYLOFT_NO_SWITCH std::size_t QueuedTasks() const override { return queued_; }
  const char* Name() const override { return "skyloft-eevdf"; }

  // Exposed for invariant tests: the lag of `task` relative to its queue.
  DurationNs LagOf(SchedItem* task, int worker) const;

  // Live base-slice control: affects future deadlines (join, slice refresh,
  // migration); deadlines already granted are honored at their old length.
  SKYLOFT_NO_SWITCH void SetQuantum(DurationNs quantum_ns) override {
    slice_ = NormalizeQuantum(quantum_ns, kInfiniteSliceEevdf);
  }
  SKYLOFT_NO_SWITCH DurationNs QuantumFor() const override { return slice_; }

 private:
  struct EevdfData {
    DurationNs vruntime = 0;
    DurationNs deadline = 0;
  };

  struct Runqueue {
    std::vector<SchedItem*> tasks;  // scanned linearly; queues are short
    DurationNs vtime = 0;      // V: queue virtual time
  };

  Runqueue& rq(int worker) { return queues_[static_cast<std::size_t>(worker)]; }

  EevdfParams params_;
  DurationNs slice_;
  std::vector<Runqueue> queues_;
  std::size_t queued_ = 0;
  int next_queue_ = 0;
};

}  // namespace skyloft

#endif  // SRC_POLICIES_EEVDF_H_
