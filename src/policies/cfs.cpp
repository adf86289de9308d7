#include "src/policies/cfs.h"

#include <algorithm>

#include "src/base/logging.h"

namespace skyloft {

bool CfsPolicy::VruntimeLess::operator()(const SchedItem* a, const SchedItem* b) const {
  const auto* da = const_cast<SchedItem*>(a)->PolicyData<CfsData>();
  const auto* db = const_cast<SchedItem*>(b)->PolicyData<CfsData>();
  if (da->vruntime != db->vruntime) {
    return da->vruntime < db->vruntime;
  }
  return a->id < b->id;
}

void CfsPolicy::SchedInit(EngineView* view) {
  SchedPolicy::SchedInit(view);
  queues_ = std::vector<Runqueue>(static_cast<std::size_t>(view->NumWorkers()));
}

void CfsPolicy::TaskInit(SchedItem* task) { *task->PolicyData<CfsData>() = CfsData{}; }

DurationNs CfsPolicy::SliceFor(const Runqueue& queue) const {
  if (quantum_explicit_) {
    return quantum_;
  }
  const auto nr = static_cast<DurationNs>(queue.tree.size()) + 1;  // + current
  return std::max(params_.min_granularity, params_.sched_latency / nr);
}

void CfsPolicy::TaskEnqueue(SchedItem* task, unsigned flags, int worker_hint) {
  int target = worker_hint;
  if (target < 0 || target >= static_cast<int>(queues_.size())) {
    target = next_queue_;
    next_queue_ = (next_queue_ + 1) % static_cast<int>(queues_.size());
  }
  Runqueue& queue = rq(target);
  CfsData* data = task->PolicyData<CfsData>();
  if (flags & (kEnqueueNew | kEnqueueWakeup)) {
    // Sleeper compensation: place the task half a latency period before
    // min_vruntime so it runs soon, but never let it roll vruntime backward.
    const DurationNs placed = queue.min_vruntime - params_.sched_latency / 2;
    data->vruntime = std::max(data->vruntime, placed);
  }
  queue.tree.insert(task);
  queued_++;
}

SchedItem* CfsPolicy::TaskDequeue(int worker) {
  if (worker < 0 || worker >= static_cast<int>(queues_.size())) {
    return nullptr;
  }
  Runqueue& queue = rq(worker);
  if (queue.tree.empty()) {
    return nullptr;
  }
  SchedItem* task = *queue.tree.begin();
  queue.tree.erase(queue.tree.begin());
  queued_--;
  CfsData* data = task->PolicyData<CfsData>();
  queue.min_vruntime = std::max(queue.min_vruntime, data->vruntime);
  data->slice_used = 0;
  return task;
}

bool CfsPolicy::SchedTimerTick(int worker, SchedItem* current, DurationNs ran_ns) {
  if (current == nullptr) {
    return false;
  }
  Runqueue& queue = rq(worker);
  CfsData* data = current->PolicyData<CfsData>();
  data->vruntime += ran_ns;
  data->slice_used += ran_ns;
  // Advance min_vruntime with the running task (Linux update_min_vruntime):
  // it is the smaller of the current task's vruntime and the leftmost
  // waiter's, and never goes backward.
  DurationNs floor = data->vruntime;
  if (!queue.tree.empty()) {
    floor = std::min(floor, (*queue.tree.begin())->PolicyData<CfsData>()->vruntime);
  }
  queue.min_vruntime = std::max(queue.min_vruntime, floor);
  if (queue.tree.empty()) {
    return false;
  }
  if (data->slice_used < SliceFor(queue)) {
    return false;
  }
  // Preempt only if someone has a smaller vruntime (fairness deficit).
  const auto* leftmost = (*queue.tree.begin())->PolicyData<CfsData>();
  return leftmost->vruntime < data->vruntime;
}

void CfsPolicy::SchedBalance(int worker) {
  int victim = -1;
  std::size_t best = 0;
  for (int q = 0; q < static_cast<int>(queues_.size()); q++) {
    if (q == worker) {
      continue;
    }
    const std::size_t size = queues_[static_cast<std::size_t>(q)].tree.size();
    if (size > best) {
      best = size;
      victim = q;
    }
  }
  if (victim < 0) {
    return;
  }
  Runqueue& from = rq(victim);
  Runqueue& to = rq(worker);
  SchedItem* task = *from.tree.begin();
  from.tree.erase(from.tree.begin());
  // Migrating between queues renormalizes vruntime to the new queue's base,
  // as Linux does with min_vruntime deltas.
  CfsData* data = task->PolicyData<CfsData>();
  data->vruntime = data->vruntime - from.min_vruntime + to.min_vruntime;
  to.tree.insert(task);
}

}  // namespace skyloft
