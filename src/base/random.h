// Deterministic pseudo-random number generation and the service-time
// distributions used by the paper's workloads.
//
// We use splitmix64/xoshiro-style generators instead of <random> engines so
// that simulation traces are reproducible across standard libraries.
#ifndef SRC_BASE_RANDOM_H_
#define SRC_BASE_RANDOM_H_

#include <cmath>
#include <cstdint>

#include "src/base/logging.h"
#include "src/base/time.h"

namespace skyloft {

// splitmix64: tiny, well-distributed, and stable across platforms.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}

  // Derives an independent stream seed from (base seed, stream index), so
  // one run seed can feed several components with uncorrelated draws
  // (perfbench's KV and ring workloads take streams 1-3 of their seed). A
  // plain `seed ^ stream` is dangerous with splitmix64 (nearby streams start
  // a fixed small offset apart in the same underlying sequence), so the
  // stream index is mixed through a full avalanche round first. Stream 0
  // returns the base seed unchanged.
  static std::uint64_t DeriveStream(std::uint64_t seed, std::uint64_t stream) {
    if (stream == 0) {
      return seed;
    }
    std::uint64_t z = seed + stream * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  std::uint64_t NextU64() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  // Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(NextU64() >> 11) * (1.0 / 9007199254740992.0);
  }

  // Uniform integer in [0, bound).
  std::uint64_t NextBelow(std::uint64_t bound) {
    SKYLOFT_DCHECK(bound > 0);
    return NextU64() % bound;
  }

  // Bernoulli trial with probability p of returning true.
  bool NextBool(double p) { return NextDouble() < p; }

  // Exponential with the given mean (used for Poisson inter-arrival gaps).
  double NextExponential(double mean) {
    double u = NextDouble();
    // Guard the log against u == 0.
    if (u <= 0.0) {
      u = 1e-18;
    }
    return -mean * std::log(1.0 - u);
  }

 private:
  std::uint64_t state_;
};

// A service-time distribution: maps RNG draws to request durations in ns.
// Covers every workload in the paper's evaluation:
//   - Fixed: schbench-style constant work items
//   - Exponential: generic light-tailed load
//   - Bimodal: Fig. 7 dispersive load (99.5% x 4us + 0.5% x 10ms) and the
//     Fig. 8b RocksDB mix (50% x 0.95us GET + 50% x 591us SCAN)
class ServiceTimeDist {
 public:
  static ServiceTimeDist Fixed(DurationNs value) {
    ServiceTimeDist d;
    d.kind_ = Kind::kFixed;
    d.a_ = value;
    return d;
  }

  static ServiceTimeDist Exponential(DurationNs mean) {
    ServiceTimeDist d;
    d.kind_ = Kind::kExponential;
    d.a_ = mean;
    return d;
  }

  // With probability `p_short` draws `short_ns`, otherwise `long_ns`.
  static ServiceTimeDist Bimodal(double p_short, DurationNs short_ns, DurationNs long_ns) {
    SKYLOFT_CHECK(p_short >= 0.0 && p_short <= 1.0);
    ServiceTimeDist d;
    d.kind_ = Kind::kBimodal;
    d.p_ = p_short;
    d.a_ = short_ns;
    d.b_ = long_ns;
    return d;
  }

  DurationNs Sample(Rng& rng) const {
    switch (kind_) {
      case Kind::kFixed:
        return a_;
      case Kind::kExponential:
        return static_cast<DurationNs>(rng.NextExponential(static_cast<double>(a_)));
      case Kind::kBimodal:
        return rng.NextBool(p_) ? a_ : b_;
    }
    return a_;
  }

  // Expected value in ns, used to compute offered load from request rate.
  double MeanNs() const {
    switch (kind_) {
      case Kind::kFixed:
      case Kind::kExponential:
        return static_cast<double>(a_);
      case Kind::kBimodal:
        return p_ * static_cast<double>(a_) + (1.0 - p_) * static_cast<double>(b_);
    }
    return static_cast<double>(a_);
  }

 private:
  enum class Kind { kFixed, kExponential, kBimodal };

  ServiceTimeDist() = default;

  Kind kind_ = Kind::kFixed;
  double p_ = 0.0;
  DurationNs a_ = 0;
  DurationNs b_ = 0;
};

}  // namespace skyloft

#endif  // SRC_BASE_RANDOM_H_
