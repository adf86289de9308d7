#include "src/baselines/systems.h"

#include <vector>

namespace skyloft {

namespace {

// Builds the simulation substrate shared by every system under test: a fresh
// Simulation, the machine, its user-interrupt chip and the kernel model.
SystemSetup MakeBase(const std::string& name, int num_cores) {
  SystemSetup setup;
  setup.name = name;
  setup.sim = std::make_unique<Simulation>();
  MachineConfig mcfg;
  mcfg.num_cores = num_cores;
  mcfg.cores_per_socket = 24;
  setup.machine = std::make_unique<Machine>(setup.sim.get(), mcfg);
  setup.chip = std::make_unique<UintrChip>(setup.machine.get());
  setup.kernel = std::make_unique<KernelSim>(setup.machine.get(), setup.chip.get());
  return setup;
}

std::vector<CoreId> CoreRange(int first, int count) {
  std::vector<CoreId> cores;
  cores.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; i++) {
    cores.push_back(first + i);
  }
  return cores;
}

// Linux context-switch costs (§5.4): every switch through the kernel
// scheduler costs 1124 ns; waking a blocked thread costs 2471 ns total.
void ApplyLinuxCosts(EngineConfig& config, const CostModel& costs) {
  config.local_switch_ns = costs.linux_kthread_switch_ns;
  config.wakeup_extra_ns = costs.linux_kthread_wake_switch_ns - costs.linux_kthread_switch_ns;
}

}  // namespace

SystemSetup MakeSkyloftPerCpu(SkyloftSched sched, int num_cores, DurationNs rr_slice) {
  const char* names[] = {"skyloft-rr", "skyloft-cfs", "skyloft-eevdf", "skyloft-fifo"};
  SystemSetup setup = MakeBase(names[static_cast<int>(sched)], num_cores);

  switch (sched) {
    case SkyloftSched::kRr:
      setup.policy = std::make_unique<RoundRobinPolicy>(rr_slice);
      break;
    case SkyloftSched::kCfs:
      setup.policy = std::make_unique<CfsPolicy>(CfsParams{Micros(12) + 500, Micros(50)});
      break;
    case SkyloftSched::kEevdf:
      setup.policy = std::make_unique<EevdfPolicy>(EevdfParams{Micros(12) + 500});
      break;
    case SkyloftSched::kFifo:
      setup.policy = std::make_unique<RoundRobinPolicy>(kInfiniteSlice);
      break;
  }

  PerCpuEngineConfig pcfg;
  pcfg.base.worker_cores = CoreRange(0, num_cores);
  pcfg.base.local_switch_ns = 100;  // user-level switch through the scheduler
  pcfg.timer_hz = 100'000;          // Table 5: TIMER_HZ
  pcfg.tick_path = TickPath::kUserTimer;
  setup.engine = std::make_unique<PerCpuEngine>(setup.machine.get(), setup.chip.get(),
                                                setup.kernel.get(), setup.policy.get(), pcfg);
  setup.app = setup.engine->CreateApp("lc");
  setup.engine->Start();
  return setup;
}

SystemSetup MakeLinuxPerCpu(LinuxSched sched, int num_cores) {
  const char* names[] = {"linux-rr", "linux-cfs-default", "linux-cfs-tuned",
                         "linux-eevdf-default", "linux-eevdf-tuned"};
  SystemSetup setup = MakeBase(names[static_cast<int>(sched)], num_cores);

  std::int64_t hz = 250;
  switch (sched) {
    case LinuxSched::kRrDefault:
      setup.policy = std::make_unique<RoundRobinPolicy>(Millis(100));
      hz = 250;
      break;
    case LinuxSched::kCfsDefault:
      setup.policy = std::make_unique<CfsPolicy>(CfsParams{Millis(3), Millis(24)});
      hz = 250;
      break;
    case LinuxSched::kCfsTuned:
      setup.policy = std::make_unique<CfsPolicy>(CfsParams{Micros(12) + 500, Micros(50)});
      hz = 1000;
      break;
    case LinuxSched::kEevdfDefault:
      setup.policy = std::make_unique<EevdfPolicy>(EevdfParams{Millis(3)});
      hz = 1000;
      break;
    case LinuxSched::kEevdfTuned:
      setup.policy = std::make_unique<EevdfPolicy>(EevdfParams{Micros(12) + 500});
      hz = 1000;
      break;
  }

  PerCpuEngineConfig pcfg;
  pcfg.base.worker_cores = CoreRange(0, num_cores);
  ApplyLinuxCosts(pcfg.base, setup.machine->costs());
  pcfg.timer_hz = hz;  // Table 5: CONFIG_HZ caps Linux preemption granularity
  pcfg.tick_path = TickPath::kKernelTimer;
  setup.engine = std::make_unique<PerCpuEngine>(setup.machine.get(), setup.chip.get(),
                                                setup.kernel.get(), setup.policy.get(), pcfg);
  setup.app = setup.engine->CreateApp("lc");
  setup.engine->Start();
  return setup;
}

namespace {

SystemSetup MakeCentral(const std::string& name, int workers, CentralizedEngineConfig ccfg) {
  // Core layout: workers on 0..N-1, dispatcher (+ load generator) on core N.
  SystemSetup setup = MakeBase(name, workers + 1);
  setup.policy = std::make_unique<ShinjukuPolicy>();
  ccfg.base.worker_cores = CoreRange(0, workers);
  setup.engine = std::make_unique<CentralizedEngine>(setup.machine.get(), setup.chip.get(),
                                                     setup.kernel.get(), setup.policy.get(),
                                                     ccfg);
  setup.app = setup.engine->CreateApp("lc");
  setup.engine->Start();
  return setup;
}

CentralizedEngineConfig SkyloftShinjukuConfig(DurationNs quantum, bool core_alloc) {
  CentralizedEngineConfig ccfg;
  ccfg.base.local_switch_ns = 100;
  ccfg.quantum = quantum;
  ccfg.mech = CentralizedEngineConfig::Mech::kUserIpi;
  ccfg.dispatch_ns = 100;
  ccfg.dispatch_occupancy_ns = 50;
  ccfg.core_alloc = core_alloc;
  return ccfg;
}

}  // namespace

SystemSetup MakeSkyloftShinjuku(int workers, DurationNs quantum, bool core_alloc) {
  return MakeCentral(core_alloc ? "skyloft-shinjuku-shenango" : "skyloft-shinjuku", workers,
                     SkyloftShinjukuConfig(quantum, core_alloc));
}

SystemSetup MakeShinjukuOriginal(int workers, DurationNs quantum) {
  CentralizedEngineConfig ccfg;
  ccfg.base.local_switch_ns = 100;
  ccfg.quantum = quantum;
  // Dune posted interrupts: delivery through the VM posted-interrupt path
  // plus receiver-side VM-mode handling; a little slower than user IPIs but
  // the same order of magnitude, hence Fig. 7a's near-identical curves.
  ccfg.mech = CentralizedEngineConfig::Mech::kModelled;
  ccfg.preempt_delivery_ns = 1500;
  ccfg.preempt_receive_ns = 1200;
  ccfg.dispatch_ns = 100;
  ccfg.dispatch_occupancy_ns = 50;
  ccfg.core_alloc = false;  // Shinjuku dedicates cores to one application
  return MakeCentral("shinjuku", workers, ccfg);
}

SystemSetup MakeGhost(int workers, DurationNs quantum, bool core_alloc) {
  CentralizedEngineConfig ccfg;
  // ghOSt schedules kernel threads: every dispatch is an agent transaction
  // committed into the kernel plus a kernel context switch on the worker,
  // and every preemption is a kernel IPI followed by a kernel reschedule.
  ccfg.base.local_switch_ns = 1124;  // kthread switch on the worker
  ccfg.quantum = quantum;
  ccfg.mech = CentralizedEngineConfig::Mech::kModelled;
  ccfg.preempt_delivery_ns = 1500;  // syscall + kernel IPI delivery
  ccfg.preempt_receive_ns = 2000;   // IPI receive + kernel reschedule
  ccfg.dispatch_ns = 2400;          // txn decode + kthread wake on worker
  ccfg.dispatch_occupancy_ns = 1200;  // agent-side transaction commit
  ccfg.core_alloc = core_alloc;
  return MakeCentral(core_alloc ? "ghost-shenango" : "ghost", workers, ccfg);
}

SystemSetup MakeLinuxCfsCentralWorkload(int workers) {
  // The non-preemptive-dispatcher comparison point of Fig. 7a: the same
  // dispersive workload thrown at plain Linux CFS (tuned), no dispatcher.
  return MakeLinuxPerCpu(LinuxSched::kCfsTuned, workers);
}

SystemSetup MakeSkyloftWorkStealing(int workers, DurationNs quantum,
                                    bool utimer_core_emulation) {
  const bool preemptive = quantum != kInfiniteSliceWs;
  SystemSetup setup = MakeBase(
      utimer_core_emulation ? "skyloft-ws-utimer" : (preemptive ? "skyloft-ws-preempt" : "skyloft-ws"),
      workers + (utimer_core_emulation ? 1 : 0));

  WorkStealingParams params;
  params.quantum = quantum;
  setup.policy = std::make_unique<WorkStealingPolicy>(params);

  PerCpuEngineConfig pcfg;
  pcfg.base.worker_cores = CoreRange(0, workers);
  pcfg.base.local_switch_ns = 100;
  if (preemptive) {
    pcfg.timer_hz = kSecond / quantum;  // tick once per quantum
    pcfg.tick_path = utimer_core_emulation ? TickPath::kUtimerIpi : TickPath::kUserTimer;
    pcfg.utimer_core = utimer_core_emulation ? workers : kInvalidCore;
  } else {
    pcfg.tick_path = TickPath::kNone;
  }
  setup.engine = std::make_unique<PerCpuEngine>(setup.machine.get(), setup.chip.get(),
                                                setup.kernel.get(), setup.policy.get(), pcfg);
  setup.app = setup.engine->CreateApp("server");
  setup.engine->Start();
  return setup;
}

SystemSetup MakeShenango(int workers) {
  SystemSetup setup = MakeBase("shenango", workers);
  WorkStealingParams params;
  params.quantum = kInfiniteSliceWs;  // no preemption within an application
  setup.policy = std::make_unique<WorkStealingPolicy>(params);

  PerCpuEngineConfig pcfg;
  pcfg.base.worker_cores = CoreRange(0, workers);
  pcfg.base.local_switch_ns = 150;
  // Shenango parks idle kthreads and the IOKernel unparks them on new work
  // every 5 us; an idle core therefore pays a kernel wake to accept work.
  pcfg.base.idle_park_threshold_ns = Micros(5);
  pcfg.base.idle_unpark_cost_ns = 2000;
  pcfg.tick_path = TickPath::kNone;
  setup.engine = std::make_unique<PerCpuEngine>(setup.machine.get(), setup.chip.get(),
                                                setup.kernel.get(), setup.policy.get(), pcfg);
  setup.app = setup.engine->CreateApp("server");
  setup.engine->Start();
  return setup;
}

}  // namespace skyloft
