#include "src/uintr/uintr_chip.h"

#include <algorithm>

#include "src/base/logging.h"

namespace skyloft {

void UserInterruptUnit::SetUif(bool enabled) {
  uif_ = enabled;
  if (uif_) {
    TryDeliver();
  }
}

void UserInterruptUnit::SetUserMode(bool user_mode) {
  user_mode_ = user_mode;
  if (user_mode_) {
    TryDeliver();
  }
}

void UserInterruptUnit::Recognize(DurationNs receive_cost_ns, bool from_timer, CoreId sender) {
  // Recognition (§3.2 step 2): move PIR bits into UIRR and clear ON. If the
  // PIR is empty (the hardware-timer case without the SN self-IPI trick),
  // nothing becomes pending and no delivery happens.
  if (active_upid_ == nullptr) {
    return;
  }
  const std::uint64_t posted = active_upid_->pir.Exchange(0);
  active_upid_->on = false;
  if (posted == 0) {
    return;
  }
  uirr_.Or(posted);
  pending_receive_cost_ns_ = receive_cost_ns;
  pending_from_timer_ = from_timer;
  pending_sender_ = sender;
  TryDeliver();
}

void UserInterruptUnit::TryDeliver() {
  // Delivery (§3.2 step 3): only in user mode with UIF set; highest vector
  // first. Each delivered vector invokes the registered handler once.
  while (user_mode_ && uif_ && uirr_.Any() && handler_) {
    const int vector = uirr_.HighestSet();
    uirr_.Clear(vector);
    UintrFrame frame;
    frame.vector = vector;
    frame.receive_cost_ns = pending_receive_cost_ns_;
    frame.from_timer = pending_from_timer_;
    frame.sender = pending_sender_;
    if (counters_ != nullptr) {
      counters_->user_irqs_delivered.Inc();
      if (frame.from_timer) {
        counters_->user_timer_irqs.Inc();
      }
    }
    handler_(frame);
  }
}

void UserInterruptUnit::DeliverDirect(int vector, DurationNs receive_cost_ns, bool from_timer) {
  uirr_.Set(vector);
  pending_receive_cost_ns_ = receive_cost_ns;
  pending_from_timer_ = from_timer;
  pending_sender_ = kInvalidCore;
  TryDeliver();
}

UintrChip::UintrChip(Machine* machine) : machine_(machine) {
  const int n = machine_->num_cores();
  units_.reserve(static_cast<std::size_t>(n));
  timers_.reserve(static_cast<std::size_t>(n));
  uitts_.resize(static_cast<std::size_t>(n));
  user_timer_events_.resize(static_cast<std::size_t>(n), kInvalidEventId);
  for (CoreId core = 0; core < n; core++) {
    units_.push_back(std::make_unique<UserInterruptUnit>());
    units_.back()->counters_ = &counters_;
    timers_.push_back(std::make_unique<ApicTimer>(
        &machine_->sim(), core,
        [this](CoreId c, int vector) { RaiseHardwareInterrupt(c, vector); }));
  }
  metrics_.LinkCounter("senduipi_executed", &counters_.senduipi_executed);
  metrics_.LinkCounter("senduipi_suppressed", &counters_.senduipi_suppressed);
  metrics_.LinkCounter("physical_ipis", &counters_.physical_ipis);
  metrics_.LinkCounter("user_irqs_delivered", &counters_.user_irqs_delivered);
  metrics_.LinkCounter("user_timer_irqs", &counters_.user_timer_irqs);
  metrics_.LinkCounter("hw_recognized", &counters_.hw_recognized);
  metrics_.LinkCounter("legacy_interrupts", &counters_.legacy_interrupts);
}

int UintrChip::RegisterUittEntry(CoreId sender_core, Upid* target, int user_vector) {
  SKYLOFT_CHECK(user_vector >= 0 && user_vector < 64);
  auto& table = uitts_[static_cast<std::size_t>(sender_core)];
  table.push_back(UittEntry{true, target, user_vector});
  return static_cast<int>(table.size()) - 1;
}

DurationNs UintrChip::SendUipi(CoreId sender_core, int uitt_index) {
  auto& table = uitts_[static_cast<std::size_t>(sender_core)];
  SKYLOFT_CHECK(uitt_index >= 0 && uitt_index < static_cast<int>(table.size()))
      << "SENDUIPI with out-of-range UITT index";
  const UittEntry& entry = table[static_cast<std::size_t>(uitt_index)];
  SKYLOFT_CHECK(entry.valid);
  Upid* upid = entry.target;

  counters_.senduipi_executed.Inc();
  upid->pir.Set(entry.user_vector);

  const bool cross_numa =
      upid->ndst != kInvalidCore && machine_->CrossNuma(sender_core, upid->ndst);
  const CostModel& costs = machine_->costs();

  if (upid->sn || upid->on) {
    // SN set: post only, no notification IPI (Skyloft's timer trick).
    // ON set: a notification is already outstanding; hardware coalesces.
    counters_.senduipi_suppressed.Inc();
    return costs.UserIpiSendNs(cross_numa);
  }

  upid->on = true;
  const CoreId dest = upid->ndst;
  SKYLOFT_CHECK(dest != kInvalidCore) << "SENDUIPI to UPID with no destination";
  const int vector = upid->nv;
  const DurationNs delivery = costs.UserIpiDeliveryNs(cross_numa);
  machine_->sim().ScheduleAfter(
      delivery, [this, dest, vector, upid, sender_core] {
        DeliverPhysicalIpi(dest, vector, upid, sender_core);
      });
  return costs.UserIpiSendNs(cross_numa);
}

void UintrChip::DeliverPhysicalIpi(CoreId core, int vector, Upid* upid, CoreId sender) {
  UserInterruptUnit& unit = this->unit(core);
  counters_.physical_ipis.Inc();
  if (unit.uinv() == vector && unit.active_upid() == upid) {
    const bool cross_numa = machine_->CrossNuma(sender, core);
    counters_.hw_recognized.Inc();
    unit.Recognize(machine_->costs().UserIpiReceiveNs(cross_numa),
                   /*from_timer=*/false, sender);
    return;
  }
  // Vector mismatch or the receiving thread is no longer current on the
  // core: treated as a legacy interrupt (kernel handles and re-posts).
  counters_.legacy_interrupts.Inc();
  if (legacy_handler_) {
    legacy_handler_(core, vector);
  }
}

void UintrChip::ProgramUserTimerDeadline(CoreId core, TimeNs deadline) {
  CancelUserTimerDeadline(core);
  Simulation& sim = machine_->sim();
  const TimeNs at = std::max(deadline, sim.Now());
  user_timer_events_[static_cast<std::size_t>(core)] = sim.ScheduleAt(at, [this, core] {
    user_timer_events_[static_cast<std::size_t>(core)] = kInvalidEventId;
    unit(core).DeliverDirect(kUserTimerUivec, machine_->costs().UserTimerReceiveNs(),
                             /*from_timer=*/true);
  });
}

void UintrChip::CancelUserTimerDeadline(CoreId core) {
  EventId& ev = user_timer_events_[static_cast<std::size_t>(core)];
  if (ev != kInvalidEventId) {
    machine_->sim().Cancel(ev);
    ev = kInvalidEventId;
  }
}

bool UintrChip::UserTimerArmed(CoreId core) const {
  return user_timer_events_[static_cast<std::size_t>(core)] != kInvalidEventId;
}

void UintrChip::RaiseHardwareInterrupt(CoreId core, int vector) {
  UserInterruptUnit& unit = this->unit(core);
  if (unit.uinv() == vector) {
    // Identification (§3.2 step 1): vector matches UINV, so the core treats
    // this hardware interrupt as a user interrupt. Whether anything is
    // actually delivered depends on the PIR contents (the SN trick).
    counters_.hw_recognized.Inc();
    unit.Recognize(machine_->costs().UserTimerReceiveNs(), /*from_timer=*/true,
                   kInvalidCore);
    return;
  }
  counters_.legacy_interrupts.Inc();
  if (legacy_handler_) {
    legacy_handler_(core, vector);
  }
}

}  // namespace skyloft
