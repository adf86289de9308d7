// Per-operation cost constants for the simulated machine.
//
// Every constant is taken from the paper's own measurements on the Sapphire
// Rapids evaluation machine (Tables 6 and 7, §5.4 text), quoted in cycles at
// 2.0 GHz or directly in ns. Benchmarks that reproduce Table 6 / Table 7 read
// these back out through the full mechanism model, so they serve as both
// input calibration and an end-to-end consistency check of the model.
#ifndef SRC_SIMCORE_COST_MODEL_H_
#define SRC_SIMCORE_COST_MODEL_H_

#include "src/base/time.h"

namespace skyloft {

struct CostModel {
  std::int64_t cpu_hz = kDefaultCpuHz;

  // ---- Table 6: preemption mechanisms (cycles) ----
  // "Send": time spent by the sender; "Receive": receiver-side handling
  // including context save/restore; "Delivery": wire latency from send start
  // to handler entry on the remote core.
  Cycles signal_send = 1224;
  Cycles signal_receive = 6359;
  Cycles signal_delivery = 5274;

  Cycles kernel_ipi_send = 437;
  Cycles kernel_ipi_receive = 1582;
  Cycles kernel_ipi_delivery = 1345;

  Cycles user_ipi_send = 167;
  Cycles user_ipi_receive = 661;
  Cycles user_ipi_delivery = 1211;

  Cycles user_ipi_xnuma_send = 178;
  Cycles user_ipi_xnuma_receive = 883;
  Cycles user_ipi_xnuma_delivery = 1782;

  Cycles setitimer_receive = 5057;
  Cycles user_timer_receive = 642;

  // §5.4: extra SENDUIPI (UPID.SN=1) in the handler to re-arm user-space
  // timer-interrupt delivery.
  Cycles senduipi_sn_rearm = 123;

  // ---- Table 7: threading operations (ns) ----
  DurationNs uthread_yield_ns = 37;
  DurationNs uthread_spawn_ns = 191;
  DurationNs uthread_mutex_ns = 27;
  DurationNs uthread_condvar_ns = 86;

  DurationNs pthread_yield_ns = 898;
  DurationNs pthread_spawn_ns = 15418;
  DurationNs pthread_mutex_ns = 28;
  DurationNs pthread_condvar_ns = 2532;

  // ---- §5.4 text: thread/application switching (ns) ----
  DurationNs skyloft_app_switch_ns = 1905;       // inter-application uthread switch
  DurationNs linux_kthread_switch_ns = 1124;     // both threads runnable
  DurationNs linux_kthread_wake_switch_ns = 2471;  // wake + switch (IPC-style)

  // Generic mode-switch cost for a light syscall/ioctl round trip (derived
  // from the kernel-IPI send/receive split: user->kernel->user transition).
  DurationNs syscall_ns = 250;

  // Convenience conversions.
  DurationNs SignalDeliveryNs() const { return CyclesToNs(signal_delivery, cpu_hz); }
  DurationNs SignalReceiveNs() const { return CyclesToNs(signal_receive, cpu_hz); }
  DurationNs SignalSendNs() const { return CyclesToNs(signal_send, cpu_hz); }
  DurationNs KernelIpiDeliveryNs() const { return CyclesToNs(kernel_ipi_delivery, cpu_hz); }
  DurationNs KernelIpiReceiveNs() const { return CyclesToNs(kernel_ipi_receive, cpu_hz); }
  DurationNs KernelIpiSendNs() const { return CyclesToNs(kernel_ipi_send, cpu_hz); }
  DurationNs UserIpiSendNs(bool cross_numa = false) const {
    return CyclesToNs(cross_numa ? user_ipi_xnuma_send : user_ipi_send, cpu_hz);
  }
  DurationNs UserIpiReceiveNs(bool cross_numa = false) const {
    return CyclesToNs(cross_numa ? user_ipi_xnuma_receive : user_ipi_receive, cpu_hz);
  }
  DurationNs UserIpiDeliveryNs(bool cross_numa = false) const {
    return CyclesToNs(cross_numa ? user_ipi_xnuma_delivery : user_ipi_delivery, cpu_hz);
  }
  DurationNs UserTimerReceiveNs() const { return CyclesToNs(user_timer_receive, cpu_hz); }
  DurationNs SetitimerReceiveNs() const { return CyclesToNs(setitimer_receive, cpu_hz); }
  DurationNs SenduipiSnRearmNs() const { return CyclesToNs(senduipi_sn_rearm, cpu_hz); }
};

}  // namespace skyloft

#endif  // SRC_SIMCORE_COST_MODEL_H_
