// Tests for the network substrate: NIC + RSS rings and the open-loop Poisson
// load generator.
#include <gtest/gtest.h>

#include <map>

#include "src/simcore/simulation.h"
#include "src/libos/percpu_engine.h"
#include "src/net/loadgen.h"
#include "src/net/nic.h"
#include "src/policies/work_stealing.h"

namespace skyloft {
namespace {

// ---- NIC / RSS ----

TEST(NicTest, PacketArrivesAfterWireLatency) {
  Simulation sim;
  int delivered_queue = -1;
  TimeNs delivered_at = -1;
  Nic nic(&sim, 4, Micros(5), 64, [&](int queue) {
    delivered_queue = queue;
    delivered_at = sim.Now();
  });
  Packet p;
  p.flow = 7;
  nic.Transmit(p);
  sim.Run();
  EXPECT_EQ(delivered_at, Micros(5));
  EXPECT_EQ(delivered_queue, nic.QueueFor(7));
  Packet out;
  EXPECT_TRUE(nic.PollQueue(delivered_queue, &out));
  EXPECT_EQ(out.flow, 7u);
  EXPECT_FALSE(nic.PollQueue(delivered_queue, &out));
}

TEST(NicTest, RssIsDeterministicPerFlow) {
  Simulation sim;
  Nic nic(&sim, 8, 0, 64, nullptr);
  for (std::uint64_t flow = 0; flow < 100; flow++) {
    EXPECT_EQ(nic.QueueFor(flow), nic.QueueFor(flow));
  }
}

TEST(NicTest, RssSpreadsFlows) {
  Simulation sim;
  Nic nic(&sim, 4, 0, 64, nullptr);
  std::map<int, int> counts;
  for (std::uint64_t flow = 0; flow < 4000; flow++) {
    counts[nic.QueueFor(flow)]++;
  }
  ASSERT_EQ(counts.size(), 4u);
  for (const auto& [queue, count] : counts) {
    EXPECT_GT(count, 800) << "queue " << queue << " underloaded";
    EXPECT_LT(count, 1200) << "queue " << queue << " overloaded";
  }
}

TEST(NicTest, FullRingDropsAndCounts) {
  Simulation sim;
  Nic nic(&sim, 1, 0, 4, nullptr);  // tiny ring, nobody draining
  for (int i = 0; i < 10; i++) {
    Packet p;
    p.flow = 1;
    nic.Transmit(p);
  }
  sim.Run();
  EXPECT_EQ(nic.delivered(), 4u);
  EXPECT_EQ(nic.drops(), 6u);
}

// ---- Poisson load generator ----

struct LoadgenRig {
  LoadgenRig() {
    MachineConfig mcfg;
    mcfg.num_cores = 4;
    machine = std::make_unique<Machine>(&sim, mcfg);
    chip = std::make_unique<UintrChip>(machine.get());
    kernel = std::make_unique<KernelSim>(machine.get(), chip.get());
    policy = std::make_unique<WorkStealingPolicy>(WorkStealingParams{kInfiniteSliceWs, 1});
    PerCpuEngineConfig cfg;
    cfg.base.worker_cores = {0, 1, 2, 3};
    cfg.tick_path = TickPath::kNone;
    engine = std::make_unique<PerCpuEngine>(machine.get(), chip.get(), kernel.get(),
                                            policy.get(), cfg);
    app = engine->CreateApp("srv");
    engine->Start();
  }
  Simulation sim;
  std::unique_ptr<Machine> machine;
  std::unique_ptr<UintrChip> chip;
  std::unique_ptr<KernelSim> kernel;
  std::unique_ptr<WorkStealingPolicy> policy;
  std::unique_ptr<PerCpuEngine> engine;
  App* app = nullptr;
};

TEST(PoissonClientTest, RateIsApproximatelyCorrect) {
  LoadgenRig rig;
  PoissonClient::Options options;
  options.rate_rps = 100'000;
  options.seed = 3;
  PoissonClient client(rig.engine.get(), rig.app, {{1.0, ServiceTimeDist::Fixed(1000), 0}},
                       options);
  client.Start();
  rig.sim.RunUntil(kSecond);
  const double generated = static_cast<double>(client.generated());
  EXPECT_NEAR(generated, 100'000.0, 2'000.0);  // ~2% tolerance
  EXPECT_EQ(rig.engine->stats().completed, client.generated());
}

TEST(PoissonClientTest, MixProportionsRespected) {
  LoadgenRig rig;
  PoissonClient::Options options;
  options.rate_rps = 200'000;
  options.seed = 5;
  RequestMix mix = {{0.9, ServiceTimeDist::Fixed(500), 0}, {0.1, ServiceTimeDist::Fixed(800), 1}};
  PoissonClient client(rig.engine.get(), rig.app, mix, options);
  client.Start();
  rig.sim.RunUntil(kSecond / 2);
  const auto& stats = rig.engine->stats();
  const double frac_kind1 =
      static_cast<double>(stats.latency_by_kind[1].Count()) /
      static_cast<double>(stats.completed);
  EXPECT_NEAR(frac_kind1, 0.1, 0.02);
}

TEST(PoissonClientTest, WireLatencyDelaysSubmission) {
  LoadgenRig rig;
  PoissonClient::Options options;
  options.rate_rps = 1'000;
  options.seed = 7;
  options.wire_ns = Micros(50);
  PoissonClient client(rig.engine.get(), rig.app, {{1.0, ServiceTimeDist::Fixed(1000), 0}},
                       options);
  client.Start();
  rig.sim.RunUntil(Millis(100));
  EXPECT_GT(rig.engine->stats().completed, 50u);
}

TEST(PoissonClientTest, StopHaltsGeneration) {
  LoadgenRig rig;
  PoissonClient::Options options;
  options.rate_rps = 100'000;
  PoissonClient client(rig.engine.get(), rig.app, {{1.0, ServiceTimeDist::Fixed(100), 0}},
                       options);
  client.Start();
  rig.sim.RunUntil(Millis(10));
  client.Stop();
  const auto generated = client.generated();
  rig.sim.RunUntil(Millis(20));
  EXPECT_EQ(client.generated(), generated);
}

TEST(MixMeanTest, WeightedMean) {
  RequestMix mix = {{0.995, ServiceTimeDist::Fixed(Micros(4)), 0},
                    {0.005, ServiceTimeDist::Fixed(Millis(10)), 1}};
  EXPECT_NEAR(MixMeanNs(mix), 53'980.0, 1.0);
}

}  // namespace
}  // namespace skyloft
