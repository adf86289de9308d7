#include "src/policies/round_robin.h"

#include "src/base/logging.h"

namespace skyloft {

void RoundRobinPolicy::SchedInit(EngineView* view) {
  SchedPolicy::SchedInit(view);
  queues_ = std::vector<IntrusiveList<SchedItem>>(static_cast<std::size_t>(view->NumWorkers()));
}

void RoundRobinPolicy::TaskInit(SchedItem* task) { *task->PolicyData<RrData>() = RrData{}; }

void RoundRobinPolicy::TaskEnqueue(SchedItem* task, unsigned flags, int worker_hint) {
  int target = worker_hint;
  if (target < 0 || target >= static_cast<int>(queues_.size())) {
    target = next_queue_;
    next_queue_ = (next_queue_ + 1) % static_cast<int>(queues_.size());
  }
  queues_[static_cast<std::size_t>(target)].PushBack(task);
  queued_++;
}

SchedItem* RoundRobinPolicy::TaskDequeue(int worker) {
  if (worker < 0 || worker >= static_cast<int>(queues_.size())) {
    return nullptr;
  }
  SchedItem* task = queues_[static_cast<std::size_t>(worker)].PopFront();
  if (task != nullptr) {
    queued_--;
    task->PolicyData<RrData>()->slice_used = 0;
  }
  return task;
}

bool RoundRobinPolicy::SchedTimerTick(int worker, SchedItem* current, DurationNs ran_ns) {
  if (current == nullptr || time_slice_ == kInfiniteSlice) {
    return false;
  }
  RrData* data = current->PolicyData<RrData>();
  data->slice_used += ran_ns;
  if (data->slice_used < time_slice_) {
    return false;
  }
  // Only round-robin when someone is actually waiting on this queue.
  return !queues_[static_cast<std::size_t>(worker)].Empty();
}

void RoundRobinPolicy::SchedBalance(int worker) {
  // Pull one task from the most loaded sibling queue; any waiting task on
  // another queue is runnable work for an idle core.
  int victim = -1;
  std::size_t best = 0;
  for (int q = 0; q < static_cast<int>(queues_.size()); q++) {
    if (q == worker) {
      continue;
    }
    const std::size_t size = queues_[static_cast<std::size_t>(q)].Size();
    if (size > best) {
      best = size;
      victim = q;
    }
  }
  if (victim < 0) {
    return;
  }
  SchedItem* task = queues_[static_cast<std::size_t>(victim)].PopFront();
  if (task != nullptr) {
    queues_[static_cast<std::size_t>(worker)].PushBack(task);
  }
}

}  // namespace skyloft
