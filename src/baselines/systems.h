// Behavioural models of the systems the paper compares against, expressed as
// configurations of the same engines and policies Skyloft uses, plus each
// system's published mechanism costs:
//
//   - Linux RR / CFS / EEVDF (Fig. 5): per-CPU engine on the kernel-tick
//     path, CONFIG_HZ-limited preemption, kernel switch/wakeup costs
//   - ghOSt (Fig. 7): centralized engine whose dispatch and preemption go
//     through kernel transactions and kernel IPIs
//   - original Shinjuku (Fig. 7a): centralized engine with Dune
//     posted-interrupt preemption costs
//   - Shenango (Fig. 8): per-CPU work stealing without in-app preemption,
//     with its IOKernel-driven core parking overheads
//
// Each factory returns a SystemSetup: one simulated machine that owns its
// Simulation, with the engine started and the primary app created.
#ifndef SRC_BASELINES_SYSTEMS_H_
#define SRC_BASELINES_SYSTEMS_H_

#include <memory>
#include <string>

#include "src/libos/central_engine.h"
#include "src/libos/percpu_engine.h"
#include "src/policies/cfs.h"
#include "src/policies/eevdf.h"
#include "src/policies/round_robin.h"
#include "src/policies/shinjuku.h"
#include "src/policies/work_stealing.h"
#include "src/simcore/simulation.h"

namespace skyloft {

// Everything a benchmark needs to drive one standalone system under test.
struct SystemSetup {
  std::string name;
  std::unique_ptr<Simulation> sim;  // first member: destroyed after the engine
  std::unique_ptr<Machine> machine;
  std::unique_ptr<UintrChip> chip;
  std::unique_ptr<KernelSim> kernel;
  std::unique_ptr<SchedPolicy> policy;
  std::unique_ptr<Engine> engine;
  App* app = nullptr;  // primary (LC) application, already created

  CentralizedEngine* central() { return static_cast<CentralizedEngine*>(engine.get()); }
  PerCpuEngine* percpu() { return static_cast<PerCpuEngine*>(engine.get()); }
};

// Linux scheduler variants for Fig. 5 (Table 5 parameters).
enum class LinuxSched {
  kRrDefault,     // SCHED_RR, 100 ms slice, 250 Hz tick
  kCfsDefault,    // CFS, 3 ms granularity / 24 ms latency, 250 Hz tick
  kCfsTuned,      // CFS, 12.5 us granularity / 50 us latency, 1000 Hz tick
  kEevdfDefault,  // EEVDF, 3 ms base slice, 1000 Hz tick
  kEevdfTuned,    // EEVDF, 12.5 us base slice, 1000 Hz tick
};

// Skyloft per-CPU variants for Fig. 5 (100 kHz user-space timer).
enum class SkyloftSched {
  kRr,     // 50 us slice
  kCfs,    // 12.5 us granularity / 50 us latency
  kEevdf,  // 12.5 us base slice
  kFifo,   // infinite slice (Fig. 6)
};

// ---- Per-CPU systems (Fig. 5 / Fig. 6) ----
SystemSetup MakeSkyloftPerCpu(SkyloftSched sched, int num_cores,
                              DurationNs rr_slice = Micros(50));
SystemSetup MakeLinuxPerCpu(LinuxSched sched, int num_cores);

// ---- Centralized systems (Fig. 7) ----
// `workers` excludes the dispatcher core. `core_alloc` attaches a
// best-effort app slot (Fig. 7b/7c).
SystemSetup MakeSkyloftShinjuku(int workers, DurationNs quantum, bool core_alloc);
SystemSetup MakeShinjukuOriginal(int workers, DurationNs quantum);
SystemSetup MakeGhost(int workers, DurationNs quantum, bool core_alloc);
// Linux CFS running the dispersive workload without a dispatcher.
SystemSetup MakeLinuxCfsCentralWorkload(int workers);

// ---- Work-stealing systems (Fig. 8) ----
// Skyloft work stealing; quantum = kInfiniteSliceWs disables preemption
// (Memcached config), 5/15/30 us for the RocksDB sweeps. When
// `utimer_core_emulation` is set a dedicated core sends the timer IPIs
// instead of the local APIC timers (§5.3's utimer experiment).
SystemSetup MakeSkyloftWorkStealing(int workers, DurationNs quantum,
                                    bool utimer_core_emulation = false);
SystemSetup MakeShenango(int workers);

}  // namespace skyloft

#endif  // SRC_BASELINES_SYSTEMS_H_
