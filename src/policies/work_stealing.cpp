#include "src/policies/work_stealing.h"

#include "src/base/logging.h"

namespace skyloft {

void WorkStealingPolicy::SchedInit(EngineView* view) {
  SchedPolicy::SchedInit(view);
  queues_ = std::vector<IntrusiveList<SchedItem>>(static_cast<std::size_t>(view->NumWorkers()));
}

void WorkStealingPolicy::TaskInit(SchedItem* task) { *task->PolicyData<WsData>() = WsData{}; }

void WorkStealingPolicy::TaskEnqueue(SchedItem* task, unsigned flags, int worker_hint) {
  int target = worker_hint;
  if (target < 0 || target >= static_cast<int>(queues_.size())) {
    target = next_queue_;
    next_queue_ = (next_queue_ + 1) % static_cast<int>(queues_.size());
  }
  queues_[static_cast<std::size_t>(target)].PushBack(task);
  queued_++;
}

SchedItem* WorkStealingPolicy::TaskDequeue(int worker) {
  if (worker < 0 || worker >= static_cast<int>(queues_.size())) {
    return nullptr;
  }
  SchedItem* task = queues_[static_cast<std::size_t>(worker)].PopFront();
  if (task != nullptr) {
    queued_--;
    task->PolicyData<WsData>()->ran = 0;
  }
  return task;
}

bool WorkStealingPolicy::SchedTimerTick(int worker, SchedItem* current, DurationNs ran_ns) {
  if (current == nullptr || quantum_ == kInfiniteSliceWs) {
    return false;
  }
  WsData* data = current->PolicyData<WsData>();
  data->ran += ran_ns;
  if (data->ran < quantum_) {
    return false;
  }
  // Preempt only when runnable work is waiting somewhere: preempting onto an
  // empty system would only add switch overhead.
  return queued_ > 0;
}

void WorkStealingPolicy::SchedBalance(int worker) {
  // Steal half of a random victim's queue (Shenango §4.2 / Blumofe-Leiserson).
  const int n = static_cast<int>(queues_.size());
  if (n <= 1) {
    return;
  }
  // Probe victims starting from a random index so contention spreads.
  const int start = static_cast<int>(rng_.NextBelow(static_cast<std::uint64_t>(n)));
  for (int probe = 0; probe < n; probe++) {
    const int victim = (start + probe) % n;
    if (victim == worker) {
      continue;
    }
    auto& from = queues_[static_cast<std::size_t>(victim)];
    const std::size_t take = (from.Size() + 1) / 2;
    if (take == 0) {
      continue;
    }
    auto& to = queues_[static_cast<std::size_t>(worker)];
    for (std::size_t i = 0; i < take; i++) {
      SchedItem* task = from.PopFront();
      if (task == nullptr) {
        break;
      }
      to.PushBack(task);
      steals_++;
    }
    return;
  }
}

}  // namespace skyloft
