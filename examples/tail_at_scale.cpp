// Tail-at-scale demo on the simulated substrate: why microsecond preemption
// matters for heavy-tailed workloads (the paper's central motivation, §1).
//
// Throws the dispersive workload (99.5% x 4 us GETs + 0.5% x 10 ms scans) at
// three schedulers on identical 8-worker machines:
//   - FIFO run-to-completion (head-of-line blocking)
//   - Skyloft-Shinjuku with a 30 us user-IPI preemption quantum
//   - Skyloft preemptive work stealing with a 5 us timer quantum
//
//   ./build/examples/tail_at_scale            # full figure
//   ./build/examples/tail_at_scale --smoke    # seconds-long CI variant
#include <cstdio>
#include <cstring>

#include "src/apps/workloads.h"
#include "src/baselines/systems.h"
#include "src/net/loadgen.h"

using namespace skyloft;

namespace {

bool g_smoke = false;

void RunOne(const char* label, SystemSetup setup, double rate_rps) {
  PoissonClient::Options options;
  options.rate_rps = rate_rps;
  options.seed = 1;
  options.rss_route = false;
  PoissonClient client(setup.engine.get(), setup.app, DispersiveMix(), options);
  client.Start();
  setup.sim->RunUntil(g_smoke ? Millis(5) : Millis(50));
  setup.engine->ResetStats();
  setup.sim->RunUntil(g_smoke ? Millis(25) : Millis(450));
  EngineStats& stats = setup.engine->stats();
  std::printf("%-22s %10.0f %12lld %12lld %14lld\n", label,
              stats.ThroughputRps(setup.sim->Now()),
              static_cast<long long>(stats.latency_by_kind[kKindShort].Percentile(0.5) / 1000),
              static_cast<long long>(stats.latency_by_kind[kKindShort].Percentile(0.99) / 1000),
              static_cast<long long>(stats.latency_by_kind[kKindShort].Max() / 1000));
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; i++) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      g_smoke = true;
    }
  }
  constexpr int kWorkers = 8;
  const double rate = 0.6 * kWorkers / (MixMeanNs(DispersiveMix()) / 1e9);

  std::printf("dispersive load at 60%% of capacity, 8 workers\n");
  std::printf("%-22s %10s %12s %12s %14s\n", "scheduler", "RPS", "GET p50(us)", "GET p99(us)",
              "GET max(us)");
  RunOne("fifo (no preemption)", MakeSkyloftPerCpu(SkyloftSched::kFifo, kWorkers), rate);
  RunOne("shinjuku q=30us", MakeSkyloftShinjuku(kWorkers, Micros(30), false), rate);
  RunOne("work-steal q=5us", MakeSkyloftWorkStealing(kWorkers, Micros(5)), rate);
  std::printf(
      "\nWithout preemption, a 4 us GET can sit behind a 10 ms scan (max ~10^4 us).\n"
      "With us-scale preemption, GET tails collapse by orders of magnitude.\n");
  return 0;
}
