// preempt-balance (R2) through the runtime's depth helpers (bad variant):
// the preempt-disable depths are updated with PreemptDepthInc/Dec, not with
// fetch_add/fetch_sub, and an unbalanced pair must still be reported.
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
    return;  // expect(preempt-balance): return with preempt-disable balance +1
  }
  DispatchNext(worker);
  PreemptDepthDec(worker->preempt_disable);
}

// expect-next(preempt-balance): exits with preempt-disable balance -1
void DoubleRelease(Worker* worker) {
  PreemptDepthInc(worker->preempt_disable);
  DispatchNext(worker);
  PreemptDepthDec(worker->preempt_disable);
  PreemptDepthDec(worker->preempt_disable);
}
