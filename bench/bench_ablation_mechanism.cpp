// Ablation: preemption mechanism, everything else held constant.
//
// The paper's implicit claim is that UINTR is the *enabler*: the same
// centralized Shinjuku policy with the same dispatcher, queue, and quantum,
// differing only in how the preemption signal reaches the worker, separates
// into distinct latency/throughput regimes. This bench swaps only the
// mechanism costs (Table 6 rows) on the dispersive workload:
//   user IPI (Skyloft) -> posted IPI (Shinjuku/Dune) -> kernel IPI +
//   reschedule (ghOSt-style) -> Linux signal (Shenango-style) -> none.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "src/simcore/simulation.h"
#include "src/apps/workloads.h"

namespace skyloft {
namespace {

constexpr int kWorkers = 20;

SystemSetup MakeWithMechanism(const char* kind) {
  // Identical engine layout; only preemption delivery/receive costs differ.
  CostModel costs;  // for converting Table 6 cycle figures
  CentralizedEngineConfig::Mech mech = CentralizedEngineConfig::Mech::kModelled;
  DurationNs delivery = 0;
  DurationNs receive = 0;
  const std::string k(kind);
  if (k == "user-ipi") {
    mech = CentralizedEngineConfig::Mech::kUserIpi;
  } else if (k == "posted-ipi") {
    delivery = 1500;
    receive = 1200;
  } else if (k == "kernel-ipi") {
    delivery = costs.KernelIpiDeliveryNs() + costs.syscall_ns;
    receive = costs.KernelIpiReceiveNs() + costs.linux_kthread_switch_ns;
  } else if (k == "signal") {
    delivery = costs.SignalDeliveryNs() + costs.syscall_ns;
    receive = costs.SignalReceiveNs();
  } else {  // none
    mech = CentralizedEngineConfig::Mech::kNone;
  }

  // Build via the Skyloft factory, then override the mechanism knobs by
  // reconstructing the engine with the same layout.
  SystemSetup setup = MakeSkyloftShinjuku(kWorkers, Micros(30), false);
  if (mech != CentralizedEngineConfig::Mech::kUserIpi) {
    setup = SystemSetup{};
    setup.name = std::string("ablate-") + kind;
    setup.sim = std::make_unique<Simulation>();
    MachineConfig mcfg;
    mcfg.num_cores = kWorkers + 1;
    setup.machine = std::make_unique<Machine>(setup.sim.get(), mcfg);
    setup.chip = std::make_unique<UintrChip>(setup.machine.get());
    setup.kernel = std::make_unique<KernelSim>(setup.machine.get(), setup.chip.get());
    setup.policy = std::make_unique<ShinjukuPolicy>();
    CentralizedEngineConfig ccfg;
    for (int i = 0; i < kWorkers; i++) {
      ccfg.base.worker_cores.push_back(i);
    }
    ccfg.base.local_switch_ns = 100;
    ccfg.quantum = Micros(30);
    ccfg.mech = mech;
    ccfg.preempt_delivery_ns = delivery;
    ccfg.preempt_receive_ns = receive;
    setup.engine = std::make_unique<CentralizedEngine>(setup.machine.get(), setup.chip.get(),
                                                       setup.kernel.get(), setup.policy.get(),
                                                       ccfg);
    setup.app = setup.engine->CreateApp("lc");
    setup.engine->Start();
  }
  return setup;
}

void Main() {
  const RequestMix mix = DispersiveMix();
  const double capacity = kWorkers / (MixMeanNs(mix) / 1e9);
  const std::vector<const char*> mechanisms = {"user-ipi", "posted-ipi", "kernel-ipi",
                                               "signal", "none"};
  const std::vector<double> load_fracs = {0.4, 0.7, 0.9};

  BenchReporter reporter("ablation_mechanism");
  reporter.MetaNum("workers", kWorkers);
  reporter.MetaNum("capacity_rps", capacity);

  // Interrupt-volume columns come from the chip/kernel counters, so the table
  // reports what each mechanism actually *sent* during the measured window,
  // not just its modelled per-event cost.
  PrintHeader("Ablation: preemption mechanism x dispersive load (p99 us of GETs)",
              {"mechanism", "load(kRPS)", "p99 GET(us)", "p99 all(us)", "senduipi", "uirq",
               "signals", "kipis"});
  for (const char* kind : mechanisms) {
    for (const double frac : load_fracs) {
      SystemSetup setup = MakeWithMechanism(kind);
      LoadPointOptions options;
      options.warmup = Millis(50);
      options.measure = Millis(300);
      options.rss_route = false;
      RunLoadPoint(setup, mix, capacity * frac, options);
      const auto& stats = setup.engine->stats();
      const auto& chip = setup.chip->counters();
      const auto& kernel = setup.kernel->counters();
      const double p99_get =
          static_cast<double>(stats.latency_by_kind[kKindShort].Percentile(0.99)) / 1000.0;
      const double p99_all =
          static_cast<double>(stats.request_latency.Percentile(0.99)) / 1000.0;
      PrintCell(kind);
      PrintCell(capacity * frac / 1000.0);
      PrintCell(p99_get);
      PrintCell(p99_all);
      PrintCell(static_cast<std::int64_t>(chip.senduipi_executed.Value()));
      PrintCell(static_cast<std::int64_t>(chip.user_irqs_delivered.Value()));
      PrintCell(static_cast<std::int64_t>(kernel.signals_sent.Value()));
      PrintCell(static_cast<std::int64_t>(kernel.kernel_ipis_sent.Value()));
      EndRow();
      reporter.AddRow()
          .Str("mechanism", kind)
          .Num("load_frac", frac)
          .Num("offered_rps", capacity * frac)
          .Num("p99_get_us", p99_get)
          .Num("p99_all_us", p99_all)
          .Int("senduipi_executed", static_cast<std::int64_t>(chip.senduipi_executed.Value()))
          .Int("user_irqs_delivered",
               static_cast<std::int64_t>(chip.user_irqs_delivered.Value()))
          .Int("signals_sent", static_cast<std::int64_t>(kernel.signals_sent.Value()))
          .Int("kernel_ipis_sent", static_cast<std::int64_t>(kernel.kernel_ipis_sent.Value()));
    }
  }
  std::printf(
      "\nExpected: GET p99 ordering user-ipi <= posted-ipi < kernel-ipi < signal\n"
      "<< none (head-of-line). Heavier mechanisms also erode high-load capacity\n"
      "(the dispatcher and workers burn more time per preemption). The volume\n"
      "columns are measured from the chip/kernel counters: only user-ipi\n"
      "exercises the real SENDUIPI path; the modelled mechanisms apply flat\n"
      "Table 6 costs without touching the chip, so their channels stay 0.\n");
  reporter.WriteFile();
}

}  // namespace
}  // namespace skyloft

int main() { skyloft::Main(); }
