// Ablation: timer-tick delivery path for preemptive work stealing.
//
// Fixes the policy (work stealing, 15 us quantum) and the workload (RocksDB
// bimodal at 60% load, 8 workers) and sweeps how ticks reach the scheduler:
//   - user-timer: LAPIC timer delegated to user space (the paper's design)
//   - user-deadline: User-Timer Events (§6 future hardware) — per-task
//     deadlines, zero ticks on idle cores
//   - kernel-timer: 1 kHz kernel tick (CONFIG_HZ ceiling)
//   - utimer-ipi: dedicated core sending user IPIs (one fewer worker)
//   - none: no preemption at all
// Reported: achieved load, p99.9 slowdown, and ticks taken (overhead proxy).
// A second table checks the host runtime's per-worker preemption timer:
// delivered against configured ticks across periods and worker counts.
#include <time.h>

#include <atomic>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/simcore/simulation.h"
#include "src/apps/workloads.h"
#include "src/policies/work_stealing.h"
#include "src/runtime/uthread.h"

namespace skyloft {
namespace {

constexpr int kWorkers = 8;
constexpr DurationNs kQuantum = Micros(15);

std::int64_t CpuClockNs(clockid_t clock) {
  struct timespec ts;
  clock_gettime(clock, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

SystemSetup MakeTickVariant(const std::string& kind) {
  SystemSetup setup;
  setup.name = "ablate-tick-" + kind;
  setup.sim = std::make_unique<Simulation>();
  MachineConfig mcfg;
  mcfg.num_cores = kWorkers + 1;  // room for the utimer core
  setup.machine = std::make_unique<Machine>(setup.sim.get(), mcfg);
  setup.chip = std::make_unique<UintrChip>(setup.machine.get());
  setup.kernel = std::make_unique<KernelSim>(setup.machine.get(), setup.chip.get());

  WorkStealingParams params;
  params.quantum = kind == "none" ? kInfiniteSliceWs : kQuantum;
  setup.policy = std::make_unique<WorkStealingPolicy>(params);

  PerCpuEngineConfig cfg;
  const int workers = kind == "utimer-ipi" ? kWorkers - 1 : kWorkers;
  for (int i = 0; i < workers; i++) {
    cfg.base.worker_cores.push_back(i);
  }
  cfg.base.local_switch_ns = 100;
  cfg.timer_hz = kSecond / kQuantum;
  if (kind == "user-timer") {
    cfg.tick_path = TickPath::kUserTimer;
  } else if (kind == "user-deadline") {
    cfg.tick_path = TickPath::kUserDeadline;
  } else if (kind == "kernel-timer") {
    cfg.tick_path = TickPath::kKernelTimer;
    cfg.timer_hz = 1000;  // CONFIG_HZ ceiling
    cfg.base.local_switch_ns = setup.machine->costs().linux_kthread_switch_ns;
  } else if (kind == "utimer-ipi") {
    cfg.tick_path = TickPath::kUtimerIpi;
    cfg.utimer_core = kWorkers - 1 + 1;  // dedicated core past the workers
  } else {
    cfg.tick_path = TickPath::kNone;
  }
  setup.engine = std::make_unique<PerCpuEngine>(setup.machine.get(), setup.chip.get(),
                                                setup.kernel.get(), setup.policy.get(), cfg);
  setup.app = setup.engine->CreateApp("server");
  setup.engine->Start();
  return setup;
}

void Main() {
  const RequestMix mix = RocksdbBimodalMix();
  const double rate = 0.6 * kWorkers / (MixMeanNs(mix) / 1e9);
  const std::vector<std::string> variants = {"user-timer", "user-deadline", "kernel-timer",
                                             "utimer-ipi", "none"};

  BenchReporter reporter("ablation_tick");
  reporter.MetaNum("workers", kWorkers);
  reporter.MetaNum("quantum_us", static_cast<double>(kQuantum) / 1000.0);
  reporter.MetaNum("offered_rps", rate);

  // The utimer/uirq columns are measured interrupt volume from the chip and
  // kernel counters: how many user timer IRQs fired and how often the kernel
  // (re)programmed the timer on each path.
  PrintHeader("Ablation: tick path x RocksDB bimodal @60% (8 workers, q=15us)",
              {"tick path", "achieved", "p999 slowdn", "ticks/ms", "utimer irq", "timer prog"});
  for (const std::string& kind : variants) {
    SystemSetup setup = MakeTickVariant(kind);
    LoadPointOptions options;
    options.warmup = Millis(100);
    options.measure = Millis(600);
    const LoadPointResult r = RunLoadPoint(setup, mix, rate, options);
    const auto& chip = setup.chip->counters();
    const auto& kernel = setup.kernel->counters();
    const double ticks_per_ms = static_cast<double>(setup.percpu()->ticks()) /
                                (static_cast<double>(options.measure + options.warmup) / 1e6);
    PrintCell(kind.c_str());
    PrintCell(r.achieved_rps / 1000.0);
    PrintCell(static_cast<double>(r.p999_slowdown_x100) / 100.0);
    PrintCell(ticks_per_ms);
    PrintCell(static_cast<std::int64_t>(chip.user_timer_irqs.Value()));
    PrintCell(static_cast<std::int64_t>(kernel.timer_programs.Value()));
    EndRow();
    reporter.AddRow()
        .Str("tick_path", kind)
        .Num("achieved_rps", r.achieved_rps)
        .Num("p999_slowdown", static_cast<double>(r.p999_slowdown_x100) / 100.0)
        .Num("ticks_per_ms", ticks_per_ms)
        .Int("user_timer_irqs", static_cast<std::int64_t>(chip.user_timer_irqs.Value()))
        .Int("user_irqs_delivered",
             static_cast<std::int64_t>(chip.user_irqs_delivered.Value()))
        .Int("timer_programs", static_cast<std::int64_t>(kernel.timer_programs.Value()));
  }
  // Host-runtime tick delivery: each worker arms its own POSIX timer, so
  // every worker should receive the configured rate. Busy uthreads (two per
  // worker) spin in this executable's text; each tick is one kSignal or
  // kDeferred trace instant. The rate is taken per worker CPU-second (the
  // process's CPU time minus this calling thread's), so a loaded host that
  // deschedules a worker does not read as lost ticks.
  PrintHeader("Host per-worker preemption timer: delivered ticks",
              {"period us", "workers", "configured/s", "delivered/s", "deferred/s", "delivered %"});
  for (const std::int64_t period_us : {20, 50, 100, 1000}) {
    for (const int host_workers : {1, 2}) {
      PrintCell(static_cast<std::int64_t>(period_us));
      PrintCell(static_cast<std::int64_t>(host_workers));
      const double configured_hz = 1e6 / static_cast<double>(period_us);
      PrintCell(configured_hz);
      SchedTracer tracer(1 << 18);
      RuntimeOptions opts{.workers = host_workers, .preempt_period_us = period_us};
      opts.tracer = &tracer;
      Runtime rt(opts);
      std::atomic<bool> stop{false};
      const std::int64_t process_cpu0 = CpuClockNs(CLOCK_PROCESS_CPUTIME_ID);
      const std::int64_t self_cpu0 = CpuClockNs(CLOCK_THREAD_CPUTIME_ID);
      rt.Run([&] {
        std::vector<UThread*> busy;
        for (int i = 0; i < 2 * host_workers; i++) {
          busy.push_back(Runtime::Spawn([&] {
            volatile std::uint64_t x = 0;
            while (!stop.load(std::memory_order_relaxed)) {
              x = x + 1;
            }
          }));
        }
        Runtime::SleepFor(300'000);
        stop.store(true);
        for (UThread* t : busy) {
          Runtime::Join(t);
        }
      });
      // Summed over the workers, so ticks per CPU-second is a per-worker rate.
      const double workers_cpu_sec =
          static_cast<double>((CpuClockNs(CLOCK_PROCESS_CPUTIME_ID) - process_cpu0) -
                              (CpuClockNs(CLOCK_THREAD_CPUTIME_ID) - self_cpu0)) /
          1e9;
      const auto deferred = static_cast<double>(tracer.CountOf(TraceEventType::kDeferred));
      const auto delivered = static_cast<double>(tracer.CountOf(TraceEventType::kSignal)) + deferred;
      SKYLOFT_CHECK(tracer.total_recorded() <= tracer.capacity()) << "trace ring wrapped";
      const double delivered_hz = delivered / workers_cpu_sec;
      const double deferred_hz = deferred / workers_cpu_sec;
      PrintCell(delivered_hz);
      PrintCell(deferred_hz);
      PrintCell(100.0 * delivered_hz / configured_hz);
      EndRow();
      reporter.AddRow()
          .Str("tick_path", "host-worker-timer")
          .Int("period_us", period_us)
          .Int("workers", host_workers)
          .Num("configured_hz", configured_hz)
          .Num("delivered_hz", delivered_hz)
          .Num("deferred_hz", deferred_hz);
      // A tick can be late or coalesced, never early: the upper bound is
      // tight and the lower one allows for ticks lost to overruns.
      SKYLOFT_CHECK(delivered_hz >= 0.9 * configured_hz)
          << period_us << " us with " << host_workers << " workers delivered only "
          << delivered_hz << " of " << configured_hz << " ticks/s (workers_cpu_sec "
          << workers_cpu_sec << ")";
      SKYLOFT_CHECK(delivered_hz < 2.0 * configured_hz)
          << period_us << " us with " << host_workers << " workers delivered " << delivered_hz
          << " of " << configured_hz << " ticks/s (workers_cpu_sec " << workers_cpu_sec << ")";
    }
  }
  reporter.WriteFile();
  std::printf(
      "\nExpected: user-timer and user-deadline meet the same slowdown, but\n"
      "user-deadline takes far fewer ticks (none on idle/quiet cores);\n"
      "kernel-timer preempts at ms granularity (slowdown blows up); utimer\n"
      "matches user-timer at the cost of a worker; none is worst.\n");
}

}  // namespace
}  // namespace skyloft

int main() { skyloft::Main(); }
