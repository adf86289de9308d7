// preempt-balance (R2) through the runtime's depth helpers (fixed variant):
// every exit path pairs its PreemptDepthInc with a PreemptDepthDec. skylint
// reports nothing here.
#include <atomic>

struct Worker {
  std::atomic<int> preempt_disable{0};
};

void PreemptDepthInc(std::atomic<int>& depth) {
  depth.store(depth.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

void PreemptDepthDec(std::atomic<int>& depth) {
  depth.store(depth.load(std::memory_order_relaxed) - 1, std::memory_order_relaxed);
}

bool QueueEmpty();
void DispatchNext(Worker* worker);

void DispatchLocked(Worker* worker) {
  PreemptDepthInc(worker->preempt_disable);
  if (QueueEmpty()) {
    PreemptDepthDec(worker->preempt_disable);
    return;
  }
  DispatchNext(worker);
  PreemptDepthDec(worker->preempt_disable);
}
