// Shinjuku policy (paper §5.2, Table 4: "Skyloft Shinjuku", 192 LOC in the
// original vs 3,900 for the real Shinjuku system).
//
// A single global FIFO queue behind a centralized dispatcher. Preemption is
// driven by the engine's quantum timer: a preempted request returns to the
// *tail* of the global queue, approximating processor sharing for
// heavy-tailed workloads. The policy itself is trivial — which is exactly
// the paper's point about the generality of the Table 2 operations.
#ifndef SRC_POLICIES_SHINJUKU_H_
#define SRC_POLICIES_SHINJUKU_H_

#include "src/base/intrusive_list.h"
#include "src/sched/policy.h"

namespace skyloft {

class ShinjukuPolicy : public SchedPolicy {
 public:
  ShinjukuPolicy() = default;

  SKYLOFT_NO_SWITCH void TaskEnqueue(SchedItem* task, unsigned flags, int worker_hint) override {
    queue_.PushBack(task);
  }

  SKYLOFT_NO_SWITCH SchedItem* TaskDequeue(int worker) override { return queue_.PopFront(); }

  SKYLOFT_NO_SWITCH bool SchedTimerTick(int worker, SchedItem* current,
                                        DurationNs ran_ns) override {
    // Quantum enforcement lives in the centralized engine's dispatcher.
    return false;
  }

  SKYLOFT_NO_SWITCH std::size_t QueuedTasks() const override { return queue_.Size(); }
  const char* Name() const override { return "skyloft-shinjuku"; }

 private:
  IntrusiveList<SchedItem> queue_;
};

}  // namespace skyloft

#endif  // SRC_POLICIES_SHINJUKU_H_
