#include "src/libos/central_engine.h"

#include <algorithm>

#include "src/base/logging.h"

namespace skyloft {

namespace {
// User-interrupt vector (PIR bit) used for dispatcher->worker preemptions.
constexpr int kPreemptUivec = 2;

// Shenango's core allocator: every 5 us it takes a core back from the batch
// application while any LC task is queued, and otherwise grants it one idle
// core, never the last LC worker. Batch work runs in 1 ms chunks.
constexpr DurationNs kAllocPeriod = Micros(5);
constexpr int kMinLcWorkers = 1;
constexpr DurationNs kBeSegmentNs = Millis(1);
}  // namespace

CentralizedEngine::CentralizedEngine(Machine* machine, UintrChip* chip, KernelSim* kernel,
                                     SchedPolicy* policy, CentralizedEngineConfig config)
    : Engine(machine, chip, kernel, policy, config.base),
      ccfg_(std::move(config)),
      dispatcher_core_(*std::max_element(config_.worker_cores.begin(),
                                         config_.worker_cores.end()) +
                       1) {
  SKYLOFT_CHECK(dispatcher_core_ < machine->num_cores())
      << "no dispatcher core after the last worker core " << dispatcher_core_ - 1;
  const auto n = static_cast<std::size_t>(NumWorkers());
  preempt_upids_.resize(n);
  preempt_uitt_.resize(n, -1);
  assign_gen_.resize(n, 0);
  preempt_target_gen_.resize(n, 0);
  quantum_ev_.resize(n, kInvalidEventId);
  owner_.resize(n, Owner::kLc);
  be_tasks_.resize(n, nullptr);
}

void CentralizedEngine::Start() {
  SKYLOFT_CHECK(!apps_.empty()) << "create at least one app before Start()";
  SKYLOFT_CHECK(!started_);
  started_ = true;

  if (ccfg_.mech == CentralizedEngineConfig::Mech::kUserIpi) {
    for (int w = 0; w < NumWorkers(); w++) {
      const CoreId core = WorkerCore(w);
      Upid& upid = preempt_upids_[static_cast<std::size_t>(w)];
      upid.sn = false;
      upid.nv = kUserIpiVector;
      upid.ndst = core;
      UserInterruptUnit& unit = chip_->unit(core);
      unit.SetUinv(kUserIpiVector);
      unit.SetActiveUpid(&upid);
      unit.SetHandler([this, w](const UintrFrame& frame) { OnPreemptIpi(w, frame); });
      preempt_uitt_[static_cast<std::size_t>(w)] =
          chip_->RegisterUittEntry(dispatcher_core_, &upid, kPreemptUivec);
    }
  }

  if (ccfg_.core_alloc) {
    machine_->sim().SchedulePeriodic(machine_->sim().Now() + kAllocPeriod, kAllocPeriod,
                                     [this] { AllocatorTick(); });
  }
}

void CentralizedEngine::AttachBestEffortApp(App* app) {
  SKYLOFT_CHECK(app->best_effort);
  be_app_ = app;
}

int CentralizedEngine::BestEffortWorkers() const {
  int n = 0;
  for (const Owner owner : owner_) {
    if (owner == Owner::kBe) {
      n++;
    }
  }
  return n;
}

DurationNs CentralizedEngine::DispatcherOccupy(DurationNs occupancy_ns) {
  // The dispatcher handles one operation at a time; later operations wait.
  const TimeNs now = Now();
  const DurationNs wait = std::max<DurationNs>(0, dispatcher_free_at_ - now);
  dispatcher_free_at_ = now + wait + occupancy_ns;
  return wait;
}

bool CentralizedEngine::Dispatch(int worker, DurationNs overhead_ns) {
  Task* task = static_cast<Task*>(policy_->TaskDequeue(/*worker=*/-1));
  if (task == nullptr) {
    return false;
  }
  const DurationNs wait = DispatcherOccupy(ccfg_.dispatch_occupancy_ns);
  AssignTask(worker, task, overhead_ns + wait + ccfg_.dispatch_ns);
  return true;
}

void CentralizedEngine::OnWorkerFree(int worker, DurationNs overhead_ns) {
  if (owner_[static_cast<std::size_t>(worker)] == Owner::kBe) {
    ResumeBatch(worker, overhead_ns);
    return;
  }
  Dispatch(worker, overhead_ns);
}

void CentralizedEngine::OnTaskAvailable(int worker_hint) {
  for (int w = 0; w < NumWorkers(); w++) {
    if (owner_[static_cast<std::size_t>(w)] == Owner::kLc && IsWorkerIdle(w)) {
      Dispatch(w, 0);
      return;
    }
  }
}

void CentralizedEngine::OnAssigned(int worker) {
  assign_gen_[static_cast<std::size_t>(worker)]++;
  if (owner_[static_cast<std::size_t>(worker)] == Owner::kLc) {
    ArmQuantum(worker);
  }
}

void CentralizedEngine::OnUnassigned(int worker) {
  EventId& ev = quantum_ev_[static_cast<std::size_t>(worker)];
  if (ev != kInvalidEventId) {
    machine_->sim().Cancel(ev);
    ev = kInvalidEventId;
  }
}

void CentralizedEngine::ArmQuantum(int worker) {
  if (ccfg_.quantum <= 0 || ccfg_.mech == CentralizedEngineConfig::Mech::kNone) {
    return;
  }
  const std::uint64_t gen = assign_gen_[static_cast<std::size_t>(worker)];
  // run_start is always >= Now() here (assignment charges overheads forward).
  const TimeNs deadline = runs_[static_cast<std::size_t>(worker)].run_start + ccfg_.quantum;
  quantum_ev_[static_cast<std::size_t>(worker)] =
      machine_->sim().ScheduleAt(deadline, [this, worker, gen] { QuantumExpired(worker, gen); });
}

void CentralizedEngine::QuantumExpired(int worker, std::uint64_t gen) {
  quantum_ev_[static_cast<std::size_t>(worker)] = kInvalidEventId;
  if (assign_gen_[static_cast<std::size_t>(worker)] != gen ||
      runs_[static_cast<std::size_t>(worker)].current == nullptr) {
    return;  // the task already left the core
  }
  // Don't bother preempting when nothing is waiting: run-to-completion is
  // optimal for an empty queue (the dispatcher knows, it owns the queue).
  if (policy_->QueuedTasks() == 0) {
    // Re-check one quantum from now for the same occupancy generation.
    quantum_ev_[static_cast<std::size_t>(worker)] = machine_->sim().ScheduleAfter(
        ccfg_.quantum, [this, worker, gen] { QuantumExpired(worker, gen); });
    return;
  }
  SendPreempt(worker);
}

void CentralizedEngine::SendPreempt(int worker) {
  preempts_sent_++;
  preempt_target_gen_[static_cast<std::size_t>(worker)] =
      assign_gen_[static_cast<std::size_t>(worker)];
  switch (ccfg_.mech) {
    case CentralizedEngineConfig::Mech::kUserIpi: {
      const DurationNs send_cost =
          chip_->SendUipi(dispatcher_core_, preempt_uitt_[static_cast<std::size_t>(worker)]);
      DispatcherOccupy(send_cost);
      break;
    }
    case CentralizedEngineConfig::Mech::kModelled: {
      DispatcherOccupy(ccfg_.preempt_delivery_ns / 4);  // sender-side part
      const std::uint64_t gen = preempt_target_gen_[static_cast<std::size_t>(worker)];
      machine_->sim().ScheduleAfter(ccfg_.preempt_delivery_ns, [this, worker, gen] {
        if (assign_gen_[static_cast<std::size_t>(worker)] == gen) {
          PreemptWorker(worker, ccfg_.preempt_receive_ns);
        }
      });
      break;
    }
    case CentralizedEngineConfig::Mech::kNone:
      break;
  }
}

void CentralizedEngine::OnPreemptIpi(int worker, const UintrFrame& frame) {
  if (assign_gen_[static_cast<std::size_t>(worker)] !=
      preempt_target_gen_[static_cast<std::size_t>(worker)]) {
    // The targeted task left the core while the IPI was in flight; absorb
    // the handler cost only.
    ChargeOverhead(worker, frame.receive_cost_ns);
    return;
  }
  PreemptWorker(worker, frame.receive_cost_ns);
}

void CentralizedEngine::AllocatorTick() {
  // Re-armed in place by the periodic event that invoked us.
  if (be_app_ == nullptr) {
    return;
  }
  if (policy_->QueuedTasks() != 0) {
    // LC is congested: take a core back from the batch application.
    for (int w = 0; w < NumWorkers(); w++) {
      if (owner_[static_cast<std::size_t>(w)] == Owner::kBe) {
        ReclaimCore(w);
        return;
      }
    }
    return;
  }
  // LC is quiet: grant one idle LC core to the batch application, keeping
  // a minimum reserve for latency spikes.
  if (NumWorkers() - BestEffortWorkers() <= kMinLcWorkers) {
    return;
  }
  for (int w = NumWorkers() - 1; w >= 0; w--) {
    if (owner_[static_cast<std::size_t>(w)] == Owner::kLc && IsWorkerIdle(w)) {
      GrantCore(w);
      return;
    }
  }
}

void CentralizedEngine::GrantCore(int worker) {
  owner_[static_cast<std::size_t>(worker)] = Owner::kBe;
  ResumeBatch(worker, 0);
}

void CentralizedEngine::ReclaimCore(int worker) {
  owner_[static_cast<std::size_t>(worker)] = Owner::kLc;
  // Preempt the batch task with the configured mechanism; once the
  // preemption lands, the worker switches back to the LC application.
  const DurationNs delivery = ccfg_.mech == CentralizedEngineConfig::Mech::kUserIpi
                                  ? machine_->costs().UserIpiDeliveryNs(
                                        machine_->CrossNuma(dispatcher_core_,
                                                            WorkerCore(worker)))
                                  : ccfg_.preempt_delivery_ns;
  const DurationNs receive = ccfg_.mech == CentralizedEngineConfig::Mech::kUserIpi
                                 ? machine_->costs().UserIpiReceiveNs()
                                 : ccfg_.preempt_receive_ns;
  preempts_sent_++;
  machine_->sim().ScheduleAfter(delivery, [this, worker, receive] {
    Task* batch = DetachCurrent(worker);
    (void)batch;  // kept in be_tasks_; re-segmented on the next grant
    if (runs_[static_cast<std::size_t>(worker)].current == nullptr) {
      Dispatch(worker, receive);
    }
  });
}

void CentralizedEngine::ResumeBatch(int worker, DurationNs overhead_ns) {
  if (owner_[static_cast<std::size_t>(worker)] != Owner::kBe) {
    return;
  }
  SKYLOFT_CHECK(be_app_ != nullptr);
  Task*& batch = be_tasks_[static_cast<std::size_t>(worker)];
  if (batch == nullptr) {
    batch = NewTask(be_app_, kBeSegmentNs, /*kind=*/3);
    batch->submit_time = Now();
    batch->on_segment_end = [](Task*) { return SegmentAction::kBlock; };
  }
  batch->remaining_ns = kBeSegmentNs;
  batch->state = TaskState::kRunnable;
  AssignTask(worker, batch, overhead_ns);
}

}  // namespace skyloft
