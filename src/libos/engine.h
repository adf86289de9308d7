// Engine: shared machinery of Skyloft's scheduling loops.
//
// An engine owns a set of worker cores, the applications running on them,
// and the task pool; it charges every modeled overhead (context switches,
// interrupt handling, inter-application switches through the kernel module)
// to the affected core by shifting that core's segment-completion event.
//
// Two engines derive from this base (mirroring §3.4's two scheduler models):
//   - PerCpuEngine: per-core runqueues + user-space timer-interrupt
//     preemption (Fig. 2a)
//   - CentralizedEngine: dispatcher core + global queue + user-IPI
//     preemption (Fig. 2b)
#ifndef SRC_LIBOS_ENGINE_H_
#define SRC_LIBOS_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/base/metrics.h"
#include "src/base/trace.h"
#include "src/kernelsim/kernel_sim.h"
#include "src/libos/app.h"
#include "src/libos/engine_stats.h"
#include "src/sched/policy.h"
#include "src/libos/task.h"
#include "src/simcore/machine.h"
#include "src/uintr/uintr_chip.h"

namespace skyloft {

struct EngineConfig {
  std::vector<CoreId> worker_cores;

  // Cost of switching between user threads of the same application (fast
  // path, §4.1). The paper measures a 37 ns yield; a full switch through the
  // scheduler including dequeue is ~100 ns.
  DurationNs local_switch_ns = 100;

  // Extra per-wakeup cost charged when a previously blocked task is placed
  // on a core (kernel baselines pay the 2471 ns kernel wake+switch path;
  // Skyloft pays nothing beyond the local switch).
  DurationNs wakeup_extra_ns = 0;

  // Idle-core parking model (Shenango baseline): a worker idle for longer
  // than the threshold is considered parked, and assigning work to it costs
  // an extra kernel unpark. Skyloft workers spin-poll and pay nothing.
  DurationNs idle_park_threshold_ns = INT64_MAX;
  DurationNs idle_unpark_cost_ns = 0;
};

class Engine : public EngineView {
 public:
  Engine(Machine* machine, UintrChip* chip, KernelSim* kernel, SchedPolicy* policy,
         EngineConfig config);
  ~Engine() override;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // Creates an application with one kernel thread per worker core. The first
  // application's threads start active; later ones are parked (§4.1) via
  // skyloft_park_on_cpu — a switch point for the simulated kthreads.
  SKYLOFT_MAY_SWITCH App* CreateApp(const std::string& name, bool best_effort = false);

  // Allocates (or recycles) a task with one work segment of `service_ns`.
  Task* NewTask(App* app, DurationNs service_ns, int kind = 0);

  // Submits a new task to the scheduler (task_init + task_enqueue).
  void Submit(Task* task, int worker_hint = -1);

  // Wakes a blocked task with its next work segment (task_wakeup).
  void WakeTask(Task* task, DurationNs service_ns);

  // §6 "Blocking events": the task running on `worker` takes a page fault
  // lasting `fault_ns`. Its application's kernel thread on that core blocks;
  // a userfaultfd-style monitor (running on a non-isolated core) observes
  // the blockage and wakes a *different* application's kernel thread on the
  // core — the Single Binding Rule holds because the faulted kthread is no
  // longer runnable. Until the fault resolves, the engine will not place
  // tasks of the faulted application on this worker. On resolution the task
  // resumes from where it faulted (its remaining service time is preserved).
  // No-op if the worker is idle or the segment completes at this instant.
  void InjectPageFault(int worker, DurationNs fault_ns);

  // True while `app` has a faulted kernel thread on `worker`.
  bool AppFaultedOn(int worker, const App* app) const;

  // Installs handlers/timers and begins scheduling. Apps must exist.
  virtual void Start() = 0;

  EngineStats& stats() { return stats_; }

  // Attaches a scheduling-event tracer (nullptr detaches). Not owned.
  void SetTracer(SchedTracer* tracer) { tracer_ = tracer; }

  // Resets all statistics (including per-app CPU time) at `Now()`; used to
  // discard warmup.
  void ResetStats();

  // Folds the in-progress run time of every busy core into app CPU time;
  // call before reading App::cpu_time_ns.
  void FlushAccounting();

  // Fraction of total worker-core time used by `app` since the last
  // ResetStats() (Fig. 7c's metric).
  double CpuShare(const App* app);

  SchedPolicy& policy() { return *policy_; }
  Machine& machine() { return *machine_; }
  KernelSim& kernel() { return *kernel_; }
  UintrChip& chip() { return *chip_; }
  const EngineConfig& config() const { return config_; }

  // ---- EngineView ----
  TimeNs Now() const override { return machine_->sim().Now(); }
  int NumWorkers() const override { return static_cast<int>(config_.worker_cores.size()); }
  CoreId WorkerCore(int index) const override {
    return config_.worker_cores[static_cast<std::size_t>(index)];
  }
  bool IsWorkerIdle(int index) const override {
    return runs_[static_cast<std::size_t>(index)].current == nullptr;
  }

  Task* CurrentOn(int worker) const { return runs_[static_cast<std::size_t>(worker)].current; }

 protected:
  struct WorkerRun {
    Task* current = nullptr;
    App* app = nullptr;        // application active on this core
    TimeNs run_start = 0;      // when `current` began executing
    TimeNs span_start = 0;     // occupancy-span origin (not reset by accounting)
    TimeNs completion_at = 0;  // scheduled end of current segment
    EventId completion_ev = kInvalidEventId;
    TimeNs last_account = 0;   // policy time-accounting watermark
    DurationNs busy_ns = 0;    // total busy time since last ResetStats()
    TimeNs idle_since = 0;     // when the worker last became idle
    App* faulted_app = nullptr;  // app whose kthread is blocked on this core
  };

  // Cost charged when the fault monitor switches the core to another app
  // (userfaultfd notification + kthread wake, §6).
  static constexpr DurationNs kFaultMonitorNs = 2000;

  // Places `task` on `worker`, charging `pre_overhead_ns` plus the local
  // switch cost and, when the task belongs to a different application than
  // the one active on the core, the inter-application switch (§3.3) through
  // skyloft_switch_to.
  SKYLOFT_MAY_SWITCH void AssignTask(int worker, Task* task, DurationNs pre_overhead_ns);

  // Preempts the running task (requeues it with kEnqueuePreempted) and asks
  // the subclass for the next one. `overhead_ns` is the interrupt-handling
  // cost leading to this preemption. No-op if the worker is idle or the
  // segment is already complete at Now().
  SKYLOFT_MAY_SWITCH void PreemptWorker(int worker, DurationNs overhead_ns);

  // Removes the running task from `worker` without requeuing it: accounts
  // CPU time, saves the remaining service time, and leaves the task in
  // kRunnable state for the caller to place (used by core allocators that
  // reclaim a best-effort core, §5.2). Returns nullptr when the worker is
  // idle or the segment completes at this very instant.
  SKYLOFT_NO_SWITCH Task* DetachCurrent(int worker);

  // Extends the running segment's completion by `overhead_ns` (interrupt
  // handled without rescheduling). No-op when idle.
  SKYLOFT_NO_SWITCH void ChargeOverhead(int worker, DurationNs overhead_ns);

  // Completion-event body: finishes or blocks the segment, then asks the
  // subclass for the next task.
  SKYLOFT_MAY_SWITCH void FinishSegment(int worker);

  // Subclass hook: the worker just became free (after `overhead_ns` of
  // unavoidable switch/handler cost); pick and assign the next task.
  SKYLOFT_MAY_SWITCH virtual void OnWorkerFree(int worker, DurationNs overhead_ns) = 0;

  // Subclass hook: a task was enqueued (Submit/WakeTask); dispatch if
  // possible.
  SKYLOFT_MAY_SWITCH virtual void OnTaskAvailable(int worker_hint) = 0;

  // Subclass hooks around assignment (centralized engine arms/cancels the
  // quantum timer here).
  virtual void OnAssigned(int worker) {}
  virtual void OnUnassigned(int worker) {}

  SKYLOFT_NO_SWITCH int WorkerIndexOf(CoreId core) const;

  void Trace(TraceEventType type, int worker, const Task* task) {
    if (tracer_ != nullptr) {
      tracer_->Record(Now(), type, worker, task != nullptr ? task->id : 0,
                      task != nullptr && task->app != nullptr ? task->app->id : -1);
    }
  }

  // Emits a "ph":"X" complete event covering [start, start + dur).
  void TraceSpan(TraceEventType type, int worker, const Task* task, TimeNs start,
                 DurationNs dur) {
    if (tracer_ != nullptr && dur > 0) {
      tracer_->RecordSpan(start, dur, type, worker, task != nullptr ? task->id : 0,
                          task != nullptr && task->app != nullptr ? task->app->id : -1);
    }
  }

  Machine* machine_;
  UintrChip* chip_;
  KernelSim* kernel_;
  SchedPolicy* policy_;
  EngineConfig config_;

  std::vector<WorkerRun> runs_;
  std::vector<std::unique_ptr<App>> apps_;
  std::vector<std::unique_ptr<Task>> all_tasks_;
  std::vector<Task*> free_tasks_;
  std::uint64_t next_task_id_ = 1;
  EngineStats stats_;
  SchedTracer* tracer_ = nullptr;
  bool started_ = false;
  // Declared after stats_ so it unregisters (destructor order) before the
  // linked stats block goes away.
  MetricGroup metrics_{"engine"};
};

}  // namespace skyloft

#endif  // SRC_LIBOS_ENGINE_H_
