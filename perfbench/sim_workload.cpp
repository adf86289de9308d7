// sim-dispersive: Skyloft's centralized Shinjuku engine (20 simulated
// workers, 30 us quantum) under the Fig. 7a dispersive mix at a fixed share
// of capacity, for a simulated span fixed by --seconds. Single-threaded;
// only simcore/libos/uintr/kernelsim and the shared policy code run here.
#include <algorithm>
#include <memory>

#include "perfbench/common.h"
#include "src/apps/workloads.h"
#include "src/baselines/systems.h"
#include "src/net/loadgen.h"

namespace perfbench {
namespace {

using skyloft::DurationNs;
using skyloft::TimeNs;

constexpr int kWorkers = 20;
constexpr double kLoadFrac = 0.7;
// Set-up simulates this much before measuring, so queues reach steady state.
constexpr DurationNs kWarmup = skyloft::Millis(200);
// Simulated time per second of --seconds, calibrated so a run's wall time is
// about --seconds on a 4-vCPU VM.
constexpr DurationNs kSimPerSecond = skyloft::Millis(4000);
constexpr DurationNs kChunk = skyloft::Millis(100);
constexpr DurationNs kDrainStep = skyloft::Millis(20);
constexpr int kMaxDrainSteps = 500;

// Percentile of the engine's bucketed latency histogram, interpolated
// linearly inside the bucket that holds it (HdrHistogram-style), so the value
// follows the data instead of snapping to a bucket bound. Percentile() is
// monotone in q; bisection finds the quantile range that maps to the bucket.
double InterpolatedPercentile(const skyloft::LatencyHistogram& h, double q) {
  const std::int64_t value = h.Percentile(q);
  double lo = 0;  // largest quantile known to map below `value`
  double hi = q;  // smallest quantile known to map to `value`
  for (int i = 0; i < 60; i++) {
    const double mid = (lo + hi) / 2;
    (h.Percentile(mid) < value ? lo : hi) = mid;
  }
  const double q_first = hi;
  lo = q;  // largest quantile known to map to `value`
  hi = 1;  // smallest quantile known to map above `value`
  for (int i = 0; i < 60; i++) {
    const double mid = (lo + hi) / 2;
    (h.Percentile(mid) > value ? hi : lo) = mid;
  }
  const double q_last = lo;
  // Buckets of values in [2^k, 2^(k+1)) are 2^k / 64 wide.
  std::int64_t width = 1;
  while (width * 128 <= value) {
    width *= 2;
  }
  const double below = std::max<double>(static_cast<double>(h.Min()),
                                        static_cast<double>(value - width));
  if (q_last <= q_first) {
    return static_cast<double>(value);
  }
  return below + (static_cast<double>(value) - below) * (q - q_first) / (q_last - q_first);
}

// One simulated system with its open-loop client, warmed up.
struct SimRun {
  skyloft::SystemSetup setup;
  std::unique_ptr<skyloft::PoissonClient> client;
  double offered_rps = 0;
  std::uint64_t warmup_completed = 0;
};

std::unique_ptr<SimRun> SetUp(std::uint64_t seed) {
  auto run = std::make_unique<SimRun>();
  run->setup = skyloft::MakeSkyloftShinjuku(kWorkers, skyloft::Micros(30), false);
  const skyloft::RequestMix mix = skyloft::DispersiveMix();
  run->offered_rps = kLoadFrac * kWorkers / (skyloft::MixMeanNs(mix) / 1e9);
  skyloft::PoissonClient::Options options;
  options.rate_rps = run->offered_rps;
  options.seed = seed;
  options.rss_route = false;  // the dispatcher owns placement
  run->client = std::make_unique<skyloft::PoissonClient>(run->setup.engine.get(), run->setup.app,
                                                         mix, options);
  run->client->Start();
  run->setup.sim->RunUntil(kWarmup);
  run->warmup_completed = run->setup.engine->stats().completed;
  run->setup.engine->ResetStats();
  return run;
}

}  // namespace

Outcome RunSimDispersive(const RunSpec& spec, SpanLog* spans) {
  Outcome out;
  std::vector<double> setup_s;
  std::unique_ptr<SimRun> run;
  for (int rep = 0; rep < spec.setup_reps; rep++) {
    run.reset();
    const std::int64_t t0 = NowNs();
    run = SetUp(spec.seed);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (rep == 0) {
      out.e2e["rss_mb"] = PeakRssMb();
    }
  }
  out.e2e["setup_s"] = Median(setup_s);

  skyloft::Simulation& sim = *run->setup.sim;
  skyloft::Engine& engine = *run->setup.engine;
  skyloft::CentralizedEngine& central = *run->setup.central();
  const auto span = static_cast<DurationNs>(spec.seconds * static_cast<double>(kSimPerSecond));
  const TimeNs begin = sim.Now();
  const std::uint64_t events0 = sim.EventsExecuted();
  const std::uint64_t preempts0 = central.preempts_sent();
  // Simulator speed in simulated requests per wall second, per chunk: the
  // median shrugs off a chunk that a host stall hit.
  std::vector<double> chunk_rates;
  std::int64_t wall_ns = 0;
  std::uint64_t prev_completed = 0;
  for (TimeNs at = begin; at < begin + span;) {
    at = std::min(at + kChunk, begin + span);
    const std::int64_t w0 = NowNs();
    sim.RunUntil(at);
    const std::int64_t w1 = NowNs();
    if (spans != nullptr) {
      spans->Add("sim.run_chunk", w0, w1, 0, SpanLog::kNoParent);
    }
    wall_ns += w1 - w0;
    const std::uint64_t completed = engine.stats().completed;
    chunk_rates.push_back(static_cast<double>(completed - prev_completed) * 1e9 /
                          static_cast<double>(std::max<std::int64_t>(1, w1 - w0)));
    prev_completed = completed;
  }
  const skyloft::EngineStats& stats = engine.stats();
  const std::uint64_t completed = stats.completed;
  const std::uint64_t events = sim.EventsExecuted() - events0;
  const std::uint64_t preempts = central.preempts_sent() - preempts0;
  const double achieved_rps = stats.ThroughputRps(sim.Now());
  const double p50_ns = InterpolatedPercentile(stats.request_latency, 0.5);
  const double p99_ns = InterpolatedPercentile(stats.request_latency, 0.99);
  const double p999_ns = InterpolatedPercentile(stats.request_latency, 0.999);

  // Output check: once arrivals stop and the backlog drains, every generated
  // request has either completed or been dropped at the simulated NIC.
  run->client->Stop();
  std::uint64_t drained = 0;
  const std::uint64_t generated = run->client->generated();
  const std::uint64_t drops = run->client->nic().drops();
  for (int step = 0; step < kMaxDrainSteps; step++) {
    drained = engine.stats().completed - completed;
    if (run->warmup_completed + completed + drained + drops >= generated) {
      break;
    }
    sim.RunUntil(sim.Now() + kDrainStep);
  }
  const std::uint64_t accounted = run->warmup_completed + completed + drained + drops;
  if (accounted != generated) {
    out.Wrong("generated " + std::to_string(generated) + " requests but " +
              std::to_string(accounted) + " completed or dropped");
  }
  out.attempted = generated;
  out.failed = drops;

  // The modelled throughput (completions per simulated second) is the
  // end-to-end figure; the simulator's own wall-clock speed drifts with the
  // host and is a per-layer metric (README.md).
  out.e2e["throughput_per_s"] = achieved_rps;
  out.e2e["wall_rps"] = Median(chunk_rates);
  out.e2e["p50_us"] = p50_ns / 1e3;
  out.e2e["p99_us"] = p99_ns / 1e3;
  out.e2e["p999_us"] = p999_ns / 1e3;
  out.meta["latency_samples"] = std::to_string(stats.request_latency.Count());
  out.meta["simulated_s"] = std::to_string(static_cast<double>(span) / 1e9);
  out.meta["offered_rps"] = std::to_string(run->offered_rps);
  Digest digest;
  digest.Add(generated);
  digest.Add(events);
  digest.Add(completed);
  digest.Add(static_cast<std::uint64_t>(p99_ns));
  out.meta["input_digest"] = digest.Hex();

  if (spans != nullptr) {
    const double reqs = static_cast<double>(std::max<std::uint64_t>(1, completed));
    out.layer["sim.events_per_req"] = static_cast<double>(events) / reqs;
    out.layer["sim.ns_per_event"] =
        static_cast<double>(wall_ns) / static_cast<double>(std::max<std::uint64_t>(1, events));
    out.layer["sim.preempts_per_req"] = static_cast<double>(preempts) / reqs;
    out.layer["sim.achieved_frac"] = achieved_rps / run->offered_rps;
    out.layer["sim.wall_rps"] = out.e2e["wall_rps"];
  }
  return out;
}

}  // namespace perfbench
