// uthread-ring: no I/O. Two workers run a ring of uthreads that pass tokens
// with Runtime::Unpark/Park, so HostSched, the runqueues and the context
// switch do nearly all the work. There are more tokens than workers, but a
// token stays with the worker that unparks its next holder, so steals are
// rare once the ring runs (README.md).
#include <atomic>
#include <memory>
#include <utility>
#include <vector>

#include "perfbench/common.h"
#include "src/base/compiler.h"
#include "src/base/random.h"
#include "src/runtime/uthread.h"

namespace perfbench {
namespace {

using skyloft::Runtime;
using skyloft::UThread;

constexpr int kWorkers = 2;
constexpr int kRingSize = 32;
constexpr int kTokens = 6;
constexpr std::uint64_t kSampleMask = 63;  // time every 64th handoff
// Set-up ends once the ring has made this many handoffs: stacks are touched,
// caches warm, and the tokens have settled on the workers.
constexpr std::uint64_t kWarmupHandoffs = 100'000;
constexpr int kSpawnBatches = 200;
constexpr int kSpawnBatch = 32;

struct alignas(skyloft::kCacheLineSize) Node {
  std::atomic<int> tokens{0};
  // Steady-clock stamp taken just before a sampled Unpark of this node; the
  // node records the wake latency when it next runs.
  std::atomic<std::int64_t> wake_stamp{0};
  std::atomic<std::uint64_t> handoffs{0};
  UThread* thread = nullptr;
  // Written only by this node's uthread. Spans are kept in traced runs only.
  Samples wake_ns;
  std::vector<std::pair<std::int64_t, std::int64_t>> wake_spans;
  std::vector<std::pair<std::int64_t, std::int64_t>> unpark_spans;
};

struct Ring {
  Node nodes[kRingSize];
  std::atomic<bool> recording{false};
  std::atomic<bool> stop{false};
  std::atomic<int> ready{0};
  std::atomic<int> stopped{0};
  std::atomic<bool> exit{false};
  bool traced = false;
};

// One ring member: waits for a token, passes it to its successor. The wait
// loops on its own predicate, so a spurious return from Park() is harmless.
SKYLOFT_MAY_SWITCH void NodeLoop(Ring* ring, int index) {
  Node& self = ring->nodes[index];
  Node& next = ring->nodes[(index + 1) % kRingSize];
  std::uint64_t count = 0;
  ring->ready.fetch_add(1, std::memory_order_acq_rel);
  while (!ring->stop.load(std::memory_order_acquire)) {
    if (self.tokens.load(std::memory_order_acquire) == 0) {
      Runtime::Park();
      continue;
    }
    const std::int64_t stamp = self.wake_stamp.exchange(0, std::memory_order_relaxed);
    const bool recording = ring->recording.load(std::memory_order_relaxed);
    if (stamp != 0 && recording) {
      const std::int64_t now = NowNs();
      self.wake_ns.Add(now - stamp);
      if (ring->traced) {
        self.wake_spans.emplace_back(stamp, now);
      }
    }
    self.tokens.fetch_sub(1, std::memory_order_acq_rel);
    self.handoffs.store(++count, std::memory_order_relaxed);
    const bool sampled = (count & kSampleMask) == 0;
    std::int64_t t0 = 0;
    if (sampled) {
      t0 = NowNs();
      next.wake_stamp.store(t0, std::memory_order_relaxed);
    }
    // Only the successor's 0 -> 1 transition unparks it, so a node never has
    // two unparkers at once: two racing Unparks of one parking uthread can
    // both schedule it (README.md, "Findings").
    if (next.tokens.fetch_add(1, std::memory_order_acq_rel) == 0) {
      Runtime::Unpark(next.thread);
      if (sampled && ring->traced && recording) {
        self.unpark_spans.emplace_back(t0, NowNs());
      }
    }
  }
  // Acknowledge the stop, then wait without parking: once every node has
  // acknowledged, no one unparks anyone, and nodes may exit.
  ring->stopped.fetch_add(1, std::memory_order_acq_rel);
  while (!ring->exit.load(std::memory_order_acquire)) {
    Runtime::Yield();
  }
}

std::uint64_t TotalHandoffs(const Ring& ring) {
  std::uint64_t total = 0;
  for (const Node& n : ring.nodes) {
    total += n.handoffs.load(std::memory_order_relaxed);
  }
  return total;
}

// Spawns the ring and places the tokens (positions from the seed). Returns
// once the ring has warmed up.
SKYLOFT_MAY_SWITCH void StartRing(Ring* ring, std::uint64_t seed, Digest* digest) {
  skyloft::Rng rng(skyloft::Rng::DeriveStream(seed, 3));
  for (int t = 0; t < kTokens; t++) {
    const auto at = static_cast<int>(rng.NextBelow(kRingSize));
    ring->nodes[at].tokens.fetch_add(1, std::memory_order_relaxed);
    if (digest != nullptr) {
      digest->Add(static_cast<std::uint64_t>(at));
    }
  }
  for (int i = 0; i < kRingSize; i++) {
    ring->nodes[i].thread = Runtime::Spawn([ring, i] { NodeLoop(ring, i); });
  }
  while (ring->ready.load(std::memory_order_acquire) < kRingSize ||
         TotalHandoffs(*ring) < kWarmupHandoffs) {
    Runtime::Yield();
  }
}

// Stops the ring and joins every node. Returns the number joined. Each node
// is woken by one extra token, under the same 0 -> 1 rule as a pass; the
// token check accounts for them.
SKYLOFT_MAY_SWITCH int StopRing(Ring* ring) {
  ring->stop.store(true, std::memory_order_release);
  for (Node& n : ring->nodes) {
    // No node exits before `exit`, so every node is still live here.
    if (n.tokens.fetch_add(1, std::memory_order_acq_rel) == 0) {
      Runtime::Unpark(n.thread);
    }
  }
  while (ring->stopped.load(std::memory_order_acquire) < kRingSize) {
    Runtime::Yield();
  }
  ring->exit.store(true, std::memory_order_release);
  int joined = 0;
  for (Node& n : ring->nodes) {
    Runtime::Join(n.thread);
    joined++;
  }
  return joined;
}

}  // namespace

Outcome RunUthreadRing(const RunSpec& spec, SpanLog* spans) {
  Outcome out;
  Digest digest;
  std::vector<double> setup_s;
  skyloft::RuntimeOptions options;
  options.workers = kWorkers;
  for (int rep = 0; rep < spec.setup_reps; rep++) {
    const bool measured = rep == spec.setup_reps - 1;
    auto ring = std::make_unique<Ring>();
    ring->traced = spans != nullptr;
    const std::int64_t t0 = NowNs();
    Runtime rt(options);
    rt.Run([&] {
      StartRing(ring.get(), spec.seed, measured ? &digest : nullptr);
      setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
      if (rep == 0) {
        out.e2e["rss_mb"] = PeakRssMb();
      }
      if (!measured) {
        StopRing(ring.get());
        return;
      }
      ring->recording.store(true, std::memory_order_relaxed);
      const std::uint64_t h0 = TotalHandoffs(*ring);
      const std::uint64_t steals0 = rt.steals();
      const std::int64_t w0 = NowNs();
      // Per-window rates: the median shrugs off a window that a host stall hit.
      std::vector<double> window_rates;
      std::uint64_t prev = h0;
      std::int64_t prev_t = w0;
      const std::int64_t end = w0 + static_cast<std::int64_t>(spec.seconds * 1e9);
      while (prev_t < end) {
        Runtime::SleepFor(100'000);
        const std::uint64_t h = TotalHandoffs(*ring);
        const std::int64_t t = NowNs();
        window_rates.push_back(static_cast<double>(h - prev) * 1e9 / static_cast<double>(t - prev_t));
        prev = h;
        prev_t = t;
      }
      ring->recording.store(false, std::memory_order_relaxed);
      const std::uint64_t handoffs = prev - h0;
      const std::uint64_t steals = rt.steals() - steals0;
      const int joined = StopRing(ring.get());

      int tokens = 0;
      Samples wake;
      for (Node& n : ring->nodes) {
        tokens += n.tokens.load(std::memory_order_relaxed);
        wake.Append(n.wake_ns);
        if (spans != nullptr) {
          for (const auto& [s, e] : n.wake_spans) {
            spans->Add("rt.wake", s, e, 0, SpanLog::kNoParent);
          }
          for (const auto& [s, e] : n.unpark_spans) {
            spans->Add("rt.unpark", s, e, 0, SpanLog::kNoParent);
          }
        }
      }
      const std::uint64_t all = TotalHandoffs(*ring);
      out.attempted = all;
      if (tokens != kTokens + kRingSize) {
        out.Wrong("ring holds " + std::to_string(tokens - kRingSize) + " tokens, expected " +
                  std::to_string(kTokens));
      }
      if (joined != kRingSize) {
        out.Wrong("joined " + std::to_string(joined) + " of " + std::to_string(kRingSize));
      }
      out.e2e["throughput_per_s"] = Median(window_rates);
      out.e2e["p50_us"] = wake.Percentile(0.5) / 1e3;
      out.e2e["p99_us"] = wake.Percentile(0.99) / 1e3;
      out.e2e["p999_us"] = wake.Percentile(0.999) / 1e3;
      out.meta["latency_samples"] = std::to_string(wake.size());
      out.meta["handoffs"] = std::to_string(handoffs);

      if (spans != nullptr) {
        // Spawn/join cost: batches of empty uthreads, each call timed.
        for (int b = 0; b < kSpawnBatches; b++) {
          UThread* batch[kSpawnBatch];
          for (UThread*& t : batch) {
            const std::int64_t s0 = NowNs();
            t = Runtime::Spawn([] {});
            spans->Add("rt.spawn", s0, NowNs(), 0, SpanLog::kNoParent);
          }
          for (UThread* t : batch) {
            const std::int64_t j0 = NowNs();
            Runtime::Join(t);
            spans->Add("rt.join", j0, NowNs(), 0, SpanLog::kNoParent);
          }
        }
        out.layer["rt.unpark_ns.p50"] = spans->DurationPercentile("rt.unpark", 0.5);
        out.layer["rt.wake_ns.p50"] = spans->DurationPercentile("rt.wake", 0.5);
        out.layer["rt.wake_ns.p99"] = spans->DurationPercentile("rt.wake", 0.99);
        out.layer["rt.steals_per_op"] =
            static_cast<double>(steals) / static_cast<double>(std::max<std::uint64_t>(1, handoffs));
        out.layer["rt.spawn_ns.p50"] = spans->DurationPercentile("rt.spawn", 0.5);
        out.layer["rt.join_ns.p50"] = spans->DurationPercentile("rt.join", 0.5);
      }
    });
  }
  out.e2e["setup_s"] = Median(setup_s);
  out.meta["input_digest"] = digest.Hex();
  return out;
}

}  // namespace perfbench
