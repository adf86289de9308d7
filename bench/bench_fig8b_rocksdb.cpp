// Fig. 8b: RocksDB server with a bimodal workload (50% GET @ 0.95 us,
// 50% SCAN @ 591 us), 14 worker cores, 99.9% *slowdown* SLO.
//
// Paper results to reproduce (shape):
//   - Shenango (no in-app preemption) blows the 50x slowdown SLO at a small
//     fraction of the load Skyloft sustains
//   - Skyloft's preemptive work stealing supports quanta down to 5 us; at
//     q=5 us it sustains ~1.9x Shenango's load at the 50x SLO
//   - emulating the timer with a dedicated IPI core (utimer, 13 workers)
//     costs ~13% of throughput vs local APIC timers (14 workers)
#include <cstdio>
#include <functional>
#include <memory>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/workloads.h"
#include "src/policies/work_stealing.h"
#include "src/runtime/quantum_controller.h"

namespace skyloft {
namespace {

constexpr int kWorkers = 14;

// Controller tuning for this figure. Fig. 8b's SLO is a p99.9 slowdown,
// which a 5 ms windowed p99 cannot see at low load (1-in-1000 events), so
// the configuration is tail-conservative: steer by the GET (protected-kind)
// windowed p99 against a tight 10x target and never trade tail for tick
// overhead (the tick budget is effectively off). The controller then has one
// job — discover the small quantum this bimodal mix wants — rather than
// being told q=5 us as the static rows are.
QuantumControllerConfig Fig8bAdaptiveConfig() {
  QuantumControllerConfig config;
  config.slo_slowdown_x100 = 1000;
  config.tighten_at = 0.8;
  config.relax_below = 0.1;
  config.quantum_min = Micros(5);
  config.quantum_max = Micros(200);
  config.quantum_initial = Micros(15);
  config.tighten_div = 3;
  config.relax_mul = 2;
  config.flip_worsen_frac = 0.5;
  // 5 ms windows hold only a handful of requests at the lowest load points.
  config.min_window_samples = 8;
  config.signal_ewma = 0.2;
  config.tick_budget_per_core_hz = 1e12;
  config.timer_period_frac = 1.0;
  config.timer_period_min = Micros(5);
  config.timer_period_max = Micros(200);
  return config;
}

void Main() {
  const RequestMix mix = RocksdbBimodalMix();
  const double capacity_rps = kWorkers / (MixMeanNs(mix) / 1e9);  // ~47 kRPS

  struct Row {
    const char* name;
    std::function<SystemSetup()> make;
    bool adaptive = false;
  };
  const std::vector<Row> systems = {
      {"skyloft-q5", [] { return MakeSkyloftWorkStealing(kWorkers, Micros(5)); }},
      {"skyloft-q15", [] { return MakeSkyloftWorkStealing(kWorkers, Micros(15)); }},
      {"skyloft-q30", [] { return MakeSkyloftWorkStealing(kWorkers, Micros(30)); }},
      {"utimer-q5",
       [] { return MakeSkyloftWorkStealing(kWorkers - 1, Micros(5), /*utimer=*/true); }},
      {"shenango", [] { return MakeShenango(kWorkers); }},
      // Starts every load point at q=15 us and lets the quantum controller
      // find the quantum; expected to track skyloft-q5 without being told.
      {"skyloft-adaptive",
       [] { return MakeSkyloftWorkStealing(kWorkers, Fig8bAdaptiveConfig().quantum_initial); },
       /*adaptive=*/true},
  };
  const std::vector<double> load_fracs = {0.05, 0.1, 0.2,  0.3, 0.4,  0.5, 0.6,
                                          0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95};
  constexpr double kSloSlowdown = 50.0;

  BenchReporter reporter("fig8b_rocksdb");
  reporter.MetaNum("workers", kWorkers);
  reporter.MetaNum("capacity_rps", capacity_rps);
  reporter.MetaNum("slo_slowdown", kSloSlowdown);

  PrintHeader("Fig.8b RocksDB bimodal, 14 workers: 99.9% slowdown vs load",
              {"system", "load(kRPS)", "achieved", "p99.9 slowdn"});
  for (const Row& row : systems) {
    double max_slo_rps = 0;
    std::uint64_t adjustments = 0;
    for (const double frac : load_fracs) {
      SystemSetup setup = row.make();
      std::unique_ptr<QuantumController> controller;
      if (row.adaptive) {
        QuantumController::Hooks hooks;
        SchedPolicy* policy = setup.policy.get();
        KernelSim* kernel = setup.kernel.get();
        hooks.apply_quantum = [policy](DurationNs quantum_ns) {
          policy->SetQuantum(quantum_ns);
        };
        hooks.apply_timer_period = [kernel](DurationNs period_ns) {
          for (int core = 0; core < kWorkers; core++) {
            kernel->SkyloftTimerSetHz(core, kSecond / period_ns);
          }
        };
        controller = std::make_unique<QuantumController>(Fig8bAdaptiveConfig(), hooks);
        controller->WatchSlowdown(&setup.engine->stats().slowdown_x100);
        controller->WatchProtected(
            &setup.engine->stats().slowdown_by_kind_x100[kKindShort]);
        PerCpuEngine* percpu = setup.percpu();
        controller->WatchTicks([percpu] { return percpu->ticks(); }, kWorkers);
        controller->ApplyInitial(0);
        QuantumController* ctl = controller.get();
        Simulation* sim = setup.sim.get();
        setup.sim->SchedulePeriodic(Millis(5), Millis(5), [ctl, sim] { ctl->Poll(sim->Now()); });
      }
      LoadPointOptions options;
      options.warmup = Millis(100);
      options.measure = Millis(800);  // enough SCANs for a stable p99.9
      options.rss_route = true;
      options.wire_ns = Micros(5);
      const LoadPointResult r = RunLoadPoint(setup, mix, capacity_rps * frac, options);
      const double slowdown = static_cast<double>(r.p999_slowdown_x100) / 100.0;
      PrintCell(row.name);
      PrintCell(r.offered_rps / 1000.0);
      PrintCell(r.achieved_rps / 1000.0);
      PrintCell(slowdown);
      EndRow();
      reporter.AddLoadPoint(row.name, r);
      if (controller != nullptr) {
        adjustments += controller->adjustments();
        reporter.AddRow()
            .Str("label", std::string(row.name) + "-quantum")
            .Num("offered_rps", r.offered_rps)
            .Num("final_quantum_us", static_cast<double>(controller->quantum()) / 1000.0)
            .Int("adjustments", static_cast<std::int64_t>(controller->adjustments()));
      }
      if (slowdown <= kSloSlowdown && r.achieved_rps > 0.98 * r.offered_rps) {
        max_slo_rps = std::max(max_slo_rps, r.achieved_rps);
      }
    }
    std::printf("%16s  max load at %.0fx slowdown SLO: %.1f kRPS\n", row.name, kSloSlowdown,
                max_slo_rps / 1000.0);
    if (row.adaptive) {
      std::printf("%16s  controller made %llu adjustments across the sweep\n", "",
                  static_cast<unsigned long long>(adjustments));
    }
    reporter.AddRow().Str("label", std::string(row.name) + "-max").Num("max_slo_rps",
                                                                      max_slo_rps);
  }
  reporter.WriteFile();
  std::printf(
      "\nExpected shape: skyloft-q5 sustains ~1.9x shenango's load at the 50x\n"
      "SLO; smaller quanta help; utimer ~13%% below skyloft-q5 (one fewer worker).\n");
}

}  // namespace
}  // namespace skyloft

int main() { skyloft::Main(); }
