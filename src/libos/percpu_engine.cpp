#include "src/libos/percpu_engine.h"

#include "src/base/logging.h"

namespace skyloft {

namespace {
// User-interrupt vector (bit in the PIR/UIRR) used for the timer-delegation
// self-IPIs. Any value works; the paper uses "any interrupt number".
constexpr int kSelfTimerUivec = 1;

// Kernel-tick handler cost (scheduler_tick + IRQ entry/exit) on the
// kKernelTimer path. A preemption it decides pays no extra: the kernel
// switch cost is the engine's local_switch_ns.
constexpr DurationNs kKernelTickCostNs = 1500;
}  // namespace

PerCpuEngine::PerCpuEngine(Machine* machine, UintrChip* chip, KernelSim* kernel,
                           SchedPolicy* policy, PerCpuEngineConfig config)
    : Engine(machine, chip, kernel, policy, config.base), pcfg_(std::move(config)) {
  upids_.resize(static_cast<std::size_t>(NumWorkers()));
  self_uitt_index_.resize(static_cast<std::size_t>(NumWorkers()), -1);
}

void PerCpuEngine::Start() {
  SKYLOFT_CHECK(!apps_.empty()) << "create at least one app before Start()";
  SKYLOFT_CHECK(!started_);
  started_ = true;

  for (int w = 0; w < NumWorkers(); w++) {
    const CoreId core = WorkerCore(w);
    switch (pcfg_.tick_path) {
      case TickPath::kUserTimer: {
        Upid& upid = upids_[static_cast<std::size_t>(w)];
        // §3.2 setup: (1) configure UINV = timer vector and UPID.SN = 1 via
        // the kernel module; (2) self-SENDUIPI to populate the PIR so the
        // first hardware timer interrupt is recognized in user space.
        kernel_->SkyloftTimerEnable(core, &upid);
        self_uitt_index_[static_cast<std::size_t>(w)] =
            chip_->RegisterUittEntry(core, &upid, kSelfTimerUivec);
        chip_->SendUipi(core, self_uitt_index_[static_cast<std::size_t>(w)]);
        chip_->unit(core).SetHandler(
            [this, w](const UintrFrame& frame) { OnUserTick(w, frame); });
        kernel_->SkyloftTimerSetHz(core, pcfg_.timer_hz);
        break;
      }
      case TickPath::kKernelTimer: {
        chip_->timer(core).SetHz(pcfg_.timer_hz);
        chip_->timer(core).Enable();
        break;
      }
      case TickPath::kUtimerIpi: {
        SKYLOFT_CHECK(pcfg_.utimer_core != kInvalidCore);
        Upid& upid = upids_[static_cast<std::size_t>(w)];
        upid.sn = false;
        upid.nv = kUserIpiVector;
        upid.ndst = core;
        UserInterruptUnit& unit = chip_->unit(core);
        unit.SetUinv(kUserIpiVector);
        unit.SetActiveUpid(&upid);
        unit.SetHandler([this, w](const UintrFrame& frame) { OnUserTick(w, frame); });
        self_uitt_index_[static_cast<std::size_t>(w)] =
            chip_->RegisterUittEntry(pcfg_.utimer_core, &upid, kSelfTimerUivec);
        break;
      }
      case TickPath::kUserDeadline: {
        // User-Timer Events (§6): the handler is all that's needed up front;
        // deadlines are programmed per assignment in OnAssigned().
        chip_->unit(core).SetHandler(
            [this, w](const UintrFrame& frame) { OnUserTick(w, frame); });
        break;
      }
      case TickPath::kNone:
        break;
    }
  }

  if (pcfg_.tick_path == TickPath::kUtimerIpi && pcfg_.timer_hz > 0) {
    // One periodic node drives every round; it re-arms in place (fresh
    // sequence number before the round runs, so same-tick ordering matches
    // the old schedule-at-top-of-callback pattern).
    const DurationNs period = HzToPeriodNs(pcfg_.timer_hz);
    machine_->sim().SchedulePeriodic(machine_->sim().Now() + period, period,
                                     [this] { UtimerRound(); });
  }

  if (pcfg_.tick_path == TickPath::kKernelTimer) {
    chip_->SetLegacyHandler([this](CoreId core, int vector) {
      if (vector != kApicTimerVector) {
        return;
      }
      const int w = WorkerIndexOf(core);
      if (w >= 0) {
        OnKernelTick(w);
      }
    });
  }
}

void PerCpuEngine::OnUserTick(int worker, const UintrFrame& frame) {
  ticks_++;
  DurationNs cost = frame.receive_cost_ns;
  if (frame.from_timer && pcfg_.tick_path == TickPath::kUserTimer) {
    // Listing 1: re-SENDUIPI (UPID.SN = 1) so the next timer interrupt is
    // also recognized in user space. Functionally re-posts the PIR bit.
    // (User-Timer Events need no re-arm: they bypass the PIR entirely.)
    chip_->SendUipi(WorkerCore(worker), self_uitt_index_[static_cast<std::size_t>(worker)]);
    cost += machine_->costs().SenduipiSnRearmNs();
  }
  Tick(worker, cost);
  if (pcfg_.tick_path == TickPath::kUserDeadline &&
      runs_[static_cast<std::size_t>(worker)].current != nullptr &&
      !chip_->UserTimerArmed(WorkerCore(worker))) {
    // The task survived its quantum (policy declined to preempt): extend
    // the deadline by one more quantum.
    chip_->ProgramUserTimerDeadline(WorkerCore(worker), Now() + HzToPeriodNs(pcfg_.timer_hz));
  }
}

void PerCpuEngine::OnAssigned(int worker) {
  if (pcfg_.tick_path == TickPath::kUserDeadline) {
    chip_->ProgramUserTimerDeadline(
        WorkerCore(worker),
        runs_[static_cast<std::size_t>(worker)].run_start + HzToPeriodNs(pcfg_.timer_hz));
  }
}

void PerCpuEngine::OnUnassigned(int worker) {
  if (pcfg_.tick_path == TickPath::kUserDeadline) {
    chip_->CancelUserTimerDeadline(WorkerCore(worker));
  }
}

void PerCpuEngine::UtimerRound() {
  // The utimer core loops over the workers executing one SENDUIPI each; the
  // sends are serial on the utimer core, so each worker's IPI departs a
  // little later than the previous one (Table 6: 167 cycles per send).
  // (The next round is armed by the periodic event that invoked us.)
  DurationNs offset = 0;
  for (int w = 0; w < NumWorkers(); w++) {
    const int idx = self_uitt_index_[static_cast<std::size_t>(w)];
    if (offset == 0) {
      offset += chip_->SendUipi(pcfg_.utimer_core, idx);
    } else {
      machine_->sim().ScheduleAfter(offset, [this, idx] { chip_->SendUipi(pcfg_.utimer_core, idx); });
      offset += machine_->costs().UserIpiSendNs(
          machine_->CrossNuma(pcfg_.utimer_core, WorkerCore(w)));
    }
  }
}

void PerCpuEngine::OnKernelTick(int worker) {
  ticks_++;
  Tick(worker, kKernelTickCostNs);
}

void PerCpuEngine::Tick(int worker, DurationNs handler_cost_ns) {
  WorkerRun& run = runs_[static_cast<std::size_t>(worker)];
  Task* current = run.current;
  DurationNs ran = 0;
  const TimeNs now = Now();
  if (current != nullptr && now > run.last_account) {
    ran = now - run.last_account;
    run.last_account = now;
  }
  const bool resched = policy_->SchedTimerTick(worker, current, ran);
  if (current == nullptr) {
    // Idle tick: chance to pull work (e.g. steal from a loaded sibling).
    TryRunNext(worker, handler_cost_ns);
    return;
  }
  if (resched) {
    PreemptWorker(worker, handler_cost_ns);
  } else {
    ChargeOverhead(worker, handler_cost_ns);
  }
}

bool PerCpuEngine::TryRunNext(int worker, DurationNs overhead_ns) {
  Task* task = static_cast<Task*>(policy_->TaskDequeue(worker));
  if (task == nullptr) {
    policy_->SchedBalance(worker);
    task = static_cast<Task*>(policy_->TaskDequeue(worker));
  }
  if (task == nullptr) {
    return false;
  }
  if (AppFaultedOn(worker, task->app)) {
    // §6: the task's kernel thread on this core is blocked on a fault; the
    // task stays queued (preferring another worker) until it resolves.
    const int other = (worker + 1) % NumWorkers();
    policy_->TaskEnqueue(task, 0, other);
    // Kick the target worker through the event queue rather than recursing.
    // If that worker is fault-blocked for the app too, nobody is kicked; the
    // fault-resolution event re-dispatches when a kthread becomes runnable.
    if (!AppFaultedOn(other, task->app)) {
      machine_->sim().ScheduleAfter(0, [this, other] {
        if (IsWorkerIdle(other)) {
          TryRunNext(other, 0);
        }
      });
    }
    return false;
  }
  AssignTask(worker, task, overhead_ns);
  return true;
}

void PerCpuEngine::OnWorkerFree(int worker, DurationNs overhead_ns) {
  TryRunNext(worker, overhead_ns);
}

void PerCpuEngine::OnTaskAvailable(int worker_hint) {
  if (worker_hint >= 0 && IsWorkerIdle(worker_hint)) {
    if (TryRunNext(worker_hint, 0)) {
      return;
    }
  }
  for (int w = 0; w < NumWorkers(); w++) {
    if (IsWorkerIdle(w)) {
      TryRunNext(w, 0);
    }
  }
}

}  // namespace skyloft
