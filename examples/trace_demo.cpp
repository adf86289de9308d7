// Cross-substrate tracing demo: records scheduling events from BOTH
// substrates with the same SchedTracer — a simulated per-CPU engine slicing
// two competing apps (with an injected page fault), then the real host M:N
// runtime preempting a CPU hog via the signal timer — and splices the two
// traces into one chrome://tracing / Perfetto-loadable document.
//
// Run it, then open TRACE_sample.json at https://ui.perfetto.dev (or
// chrome://tracing). Rows are pid=app / tid=worker; "run" and "fault_stall"
// bars are duration events, preemption signals show as instants.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>

#include "src/simcore/simulation.h"
#include "src/base/trace.h"
#include "src/libos/percpu_engine.h"
#include "src/policies/round_robin.h"
#include "src/runtime/uthread.h"

namespace skyloft {
namespace {

// Simulated substrate: one core, RR at 50 us, user-timer ticks, two apps
// contending plus a fault stall.
std::string SimSlice() {
  Simulation sim;
  MachineConfig mcfg;
  mcfg.num_cores = 1;
  auto machine = std::make_unique<Machine>(&sim, mcfg);
  auto chip = std::make_unique<UintrChip>(machine.get());
  auto kernel = std::make_unique<KernelSim>(machine.get(), chip.get());

  RoundRobinPolicy policy(Micros(50));
  PerCpuEngineConfig cfg;
  cfg.base.worker_cores = {0};
  cfg.timer_hz = 100'000;
  cfg.tick_path = TickPath::kUserTimer;
  PerCpuEngine engine(machine.get(), chip.get(), kernel.get(), &policy, cfg);
  App* app_a = engine.CreateApp("a");
  App* app_b = engine.CreateApp("b");
  engine.Start();

  SchedTracer tracer;
  engine.SetTracer(&tracer);
  engine.Submit(engine.NewTask(app_a, Millis(1)));
  engine.Submit(engine.NewTask(app_b, Millis(1)));
  sim.ScheduleAt(Micros(300), [&] { engine.InjectPageFault(0, Micros(200)); });
  sim.RunUntil(Millis(3));

  std::printf("sim slice: %zu events (%zu run spans, %zu app switches, %zu fault stalls)\n",
              tracer.size(), tracer.CountOf(TraceEventType::kRun),
              tracer.CountOf(TraceEventType::kAppSwitch),
              tracer.CountOf(TraceEventType::kFaultStall));
  return tracer.ToJson();
}

// Host substrate: one worker, 2 ms preemption timer, a CPU hog that only a
// preemption signal can break. Events — including the signal-delivery
// instants recorded inside the SIGURG handler — land in the same ring.
std::string HostSlice() {
  SchedTracer tracer(1 << 14);
  RuntimeOptions opts{.workers = 1, .preempt_period_us = 2000};
  opts.tracer = &tracer;
  Runtime rt(opts);
  std::atomic<bool> hog_running{true};
  rt.Run([&] {
    UThread* hog = Runtime::Spawn([&] {
      volatile std::uint64_t x = 0;
      while (hog_running.load(std::memory_order_relaxed)) {
        x = x + 1;
      }
    });
    UThread* other = Runtime::Spawn([&] { hog_running.store(false); });
    Runtime::Join(other);
    Runtime::Join(hog);
  });
  std::printf("host slice: %zu events (%zu run spans, %zu signals, %zu deferred)\n",
              tracer.size(), tracer.CountOf(TraceEventType::kRun),
              tracer.CountOf(TraceEventType::kSignal),
              tracer.CountOf(TraceEventType::kDeferred));
  return tracer.ToJson();
}

int Main() {
  const std::string sim_json = SimSlice();
  const std::string host_json = HostSlice();

  // Each ToJson() is a complete trace-event array; splice the two into one
  // document. (Timestamps share a timeline only nominally — sim time starts
  // at 0, host time is CLOCK_MONOTONIC — but viewers render both fine.)
  std::string combined = "[";
  combined.append(sim_json, 1, sim_json.size() - 2).append(",");
  combined.append(host_json, 1, host_json.size() - 2).append("]");

  std::ofstream out("TRACE_sample.json");
  if (!out) {
    std::fprintf(stderr, "failed to open TRACE_sample.json for writing\n");
    return 1;
  }
  out << combined << "\n";
  std::printf("wrote TRACE_sample.json (%zu bytes) — load it at https://ui.perfetto.dev\n",
              combined.size() + 1);
  return 0;
}

}  // namespace
}  // namespace skyloft

int main() { return skyloft::Main(); }
