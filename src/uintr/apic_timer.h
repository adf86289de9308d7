// Per-core local APIC timer model.
//
// Fires a hardware interrupt with vector kApicTimerVector at a configurable
// frequency. Skyloft programs this to 100 kHz (Table 5) and delegates the
// resulting interrupts to user space; the Linux baselines run it at
// CONFIG_HZ (250 or 1000).
//
// The periodic stream rides the simulator's SchedulePeriodic fast path: one
// event node is armed when the timer is enabled and re-arms itself in place
// on every fire, so a 100 kHz timer costs no allocation or closure
// construction per tick.
#ifndef SRC_UINTR_APIC_TIMER_H_
#define SRC_UINTR_APIC_TIMER_H_

#include <functional>

#include "src/simcore/machine.h"
#include "src/simcore/simulation.h"

namespace skyloft {

class ApicTimer {
 public:
  using FireCallback = std::function<void(CoreId core, int vector)>;

  ApicTimer(Simulation* sim, CoreId core, FireCallback on_fire)
      : sim_(sim), core_(core), on_fire_(std::move(on_fire)) {}

  // Sets the periodic frequency. Reprogramming an enabled timer restarts the
  // current period: the next fire is exactly one new period from now.
  void SetHz(std::int64_t hz);
  std::int64_t hz() const { return hz_; }

  void Enable();
  void Disable();
  bool enabled() const { return enabled_; }

  CoreId core() const { return core_; }

 private:
  void Rearm();
  void Fire();

  Simulation* sim_;
  CoreId core_;
  FireCallback on_fire_;
  std::int64_t hz_ = 0;
  bool enabled_ = false;
  EventId pending_ = kInvalidEventId;
};

}  // namespace skyloft

#endif  // SRC_UINTR_APIC_TIMER_H_
