#include "src/policies/eevdf.h"

#include <algorithm>

#include "src/base/logging.h"

namespace skyloft {

void EevdfPolicy::SchedInit(EngineView* view) {
  SchedPolicy::SchedInit(view);
  queues_ = std::vector<Runqueue>(static_cast<std::size_t>(view->NumWorkers()));
}

void EevdfPolicy::TaskInit(SchedItem* task) { *task->PolicyData<EevdfData>() = EevdfData{}; }

void EevdfPolicy::TaskEnqueue(SchedItem* task, unsigned flags, int worker_hint) {
  int target = worker_hint;
  if (target < 0 || target >= static_cast<int>(queues_.size())) {
    target = next_queue_;
    next_queue_ = (next_queue_ + 1) % static_cast<int>(queues_.size());
  }
  Runqueue& queue = rq(target);
  EevdfData* data = task->PolicyData<EevdfData>();
  if (flags & (kEnqueueNew | kEnqueueWakeup)) {
    // Join with zero lag: vruntime = V, deadline one base_slice out.
    data->vruntime = queue.vtime;
    data->deadline = data->vruntime + slice_;
  }
  // Preempted tasks keep their vruntime/deadline (lag is preserved).
  queue.tasks.push_back(task);
  queued_++;
}

SchedItem* EevdfPolicy::TaskDequeue(int worker) {
  if (worker < 0 || worker >= static_cast<int>(queues_.size())) {
    return nullptr;
  }
  Runqueue& queue = rq(worker);
  if (queue.tasks.empty()) {
    return nullptr;
  }
  // Earliest deadline among eligible tasks; if nothing is eligible (V lags
  // after idling), fall back to the smallest vruntime.
  std::size_t pick = queue.tasks.size();
  DurationNs best_deadline = INT64_MAX;
  for (std::size_t i = 0; i < queue.tasks.size(); i++) {
    const auto* data = queue.tasks[i]->PolicyData<EevdfData>();
    if (data->vruntime <= queue.vtime && data->deadline < best_deadline) {
      best_deadline = data->deadline;
      pick = i;
    }
  }
  if (pick == queue.tasks.size()) {
    DurationNs best_v = INT64_MAX;
    for (std::size_t i = 0; i < queue.tasks.size(); i++) {
      const auto* data = queue.tasks[i]->PolicyData<EevdfData>();
      if (data->vruntime < best_v) {
        best_v = data->vruntime;
        pick = i;
      }
    }
    // Nobody is eligible: advance V to the earliest vruntime so the pick is.
    queue.vtime = std::max(queue.vtime, best_v);
  }
  SchedItem* task = queue.tasks[pick];
  queue.tasks.erase(queue.tasks.begin() + static_cast<std::ptrdiff_t>(pick));
  queued_--;
  return task;
}

bool EevdfPolicy::SchedTimerTick(int worker, SchedItem* current, DurationNs ran_ns) {
  if (current == nullptr) {
    return false;
  }
  Runqueue& queue = rq(worker);
  EevdfData* data = current->PolicyData<EevdfData>();
  data->vruntime += ran_ns;
  // V advances at 1/nr_runnable of wall time (unit weights).
  const auto nr = static_cast<DurationNs>(queue.tasks.size()) + 1;
  queue.vtime += ran_ns / nr;
  if (queue.tasks.empty()) {
    return false;
  }
  if (data->vruntime < data->deadline) {
    return false;
  }
  // Slice exhausted: push the deadline and preempt if a waiting task has an
  // earlier deadline and is eligible.
  data->deadline = data->vruntime + slice_;
  for (SchedItem* waiting : queue.tasks) {
    const auto* wd = waiting->PolicyData<EevdfData>();
    if (wd->vruntime <= queue.vtime && wd->deadline < data->deadline) {
      return true;
    }
  }
  return false;
}

void EevdfPolicy::SchedBalance(int worker) {
  int victim = -1;
  std::size_t best = 0;
  for (int q = 0; q < static_cast<int>(queues_.size()); q++) {
    if (q == worker) {
      continue;
    }
    const std::size_t size = queues_[static_cast<std::size_t>(q)].tasks.size();
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
  SchedItem* task = from.tasks.front();
  from.tasks.erase(from.tasks.begin());
  // Renormalize to the destination queue's virtual time, preserving lag.
  EevdfData* data = task->PolicyData<EevdfData>();
  const DurationNs lag = from.vtime - data->vruntime;
  data->vruntime = to.vtime - lag;
  data->deadline = data->vruntime + slice_;
  to.tasks.push_back(task);
}

DurationNs EevdfPolicy::LagOf(SchedItem* task, int worker) const {
  const auto& queue = queues_[static_cast<std::size_t>(worker)];
  return queue.vtime - const_cast<SchedItem*>(task)->PolicyData<EevdfData>()->vruntime;
}

}  // namespace skyloft
