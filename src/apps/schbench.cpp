#include "src/apps/schbench.h"

#include "src/base/logging.h"

namespace skyloft {

SchbenchSim::SchbenchSim(Engine* engine, App* app, SchbenchOptions options)
    : engine_(engine), app_(app), options_(options) {}

void SchbenchSim::Start() {
  Simulation& sim = engine_->machine().sim();
  workers_.reserve(static_cast<std::size_t>(options_.worker_threads));
  for (int i = 0; i < options_.worker_threads; i++) {
    Task* worker = engine_->NewTask(app_, options_.request_ns);
    // Workers never finish: each completed request blocks the worker until
    // the message thread wakes it with the next one.
    worker->on_segment_end = [this](Task* task) {
      Simulation& s = engine_->machine().sim();
      s.ScheduleAfter(options_.rewake_delay_ns, [this, task] {
        engine_->WakeTask(task, options_.request_ns);
      });
      return SegmentAction::kBlock;
    };
    workers_.push_back(worker);
  }
  // Stagger the initial wakes slightly so the start is not one giant burst
  // (schbench's message thread also wakes workers one by one).
  DurationNs offset = 0;
  for (Task* worker : workers_) {
    Task* w = worker;
    sim.ScheduleAfter(offset, [this, w] {
      // First activation goes through Submit (task_init + enqueue).
      engine_->Submit(w);
    });
    offset += 200;
  }
}

std::int64_t SchbenchSim::WakeupPercentileNs(double q) const {
  return engine_->stats().wakeup_latency.Percentile(q);
}

std::uint64_t SchbenchSim::requests_completed() const {
  // Workers block rather than finish, so count wakeup samples: one per
  // completed request after the first.
  return engine_->stats().wakeup_latency.Count();
}

}  // namespace skyloft
