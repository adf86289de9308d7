// Per-CPU scheduling engine (paper Fig. 2a, §5.1).
//
// Each worker core has its own runqueue (owned by the policy) and is
// preempted by its local APIC timer. In Skyloft mode the timer interrupt is
// delegated to user space with the UINV + SN-bit trick (§3.2) and costs 642
// cycles to take; in Linux-baseline mode the same tick takes the legacy
// kernel path at CONFIG_HZ with kernel-level costs — that difference is the
// whole story of Fig. 5.
#ifndef SRC_LIBOS_PERCPU_ENGINE_H_
#define SRC_LIBOS_PERCPU_ENGINE_H_

#include <vector>

#include "src/libos/engine.h"
#include "src/uintr/upid.h"

namespace skyloft {

enum class TickPath {
  kUserTimer,     // Skyloft: LAPIC timer delegated to user space
  kKernelTimer,   // Linux baseline: tick handled in the kernel
  kUtimerIpi,     // software timer: a dedicated core sends user IPIs (§5.3)
  kUserDeadline,  // User-Timer Events (§6): per-task deadline, no periodic tick
  kNone,          // no timer (pure run-to-completion)
};

struct PerCpuEngineConfig {
  EngineConfig base;
  // Tick rate of every timer path. For kUserDeadline its period is the
  // deadline horizon: the user timer is programmed to run_start + period on
  // every assignment and re-armed on every tick the task survives.
  std::int64_t timer_hz = 100'000;  // Table 5: Skyloft runs TIMER_HZ = 100000
  TickPath tick_path = TickPath::kUserTimer;

  // Dedicated core emulating a timer by sending user IPIs to every worker
  // each period (kUtimerIpi only). Must not be a worker core.
  CoreId utimer_core = kInvalidCore;
};

class PerCpuEngine : public Engine {
 public:
  PerCpuEngine(Machine* machine, UintrChip* chip, KernelSim* kernel, SchedPolicy* policy,
               PerCpuEngineConfig config);

  void Start() override;

  // Total timer interrupts taken (all cores).
  std::uint64_t ticks() const { return ticks_; }

 protected:
  void OnWorkerFree(int worker, DurationNs overhead_ns) override;
  void OnTaskAvailable(int worker_hint) override;
  void OnAssigned(int worker) override;
  void OnUnassigned(int worker) override;

 private:
  void OnUserTick(int worker, const UintrFrame& frame);
  void OnKernelTick(int worker);
  void UtimerRound();
  void Tick(int worker, DurationNs handler_cost_ns);
  bool TryRunNext(int worker, DurationNs overhead_ns);

  PerCpuEngineConfig pcfg_;
  std::vector<Upid> upids_;           // one per worker (timer-delegation UPIDs)
  std::vector<int> self_uitt_index_;  // per-worker self-IPI UITT entry
  std::uint64_t ticks_ = 0;
};

}  // namespace skyloft

#endif  // SRC_LIBOS_PERCPU_ENGINE_H_
