// Open-loop Poisson load generator (paper §5.2/§5.3: "a separate machine ...
// running an open-loop load generator ... following a Poisson arrival
// process").
//
// Generates requests at a fixed rate regardless of server progress (open
// loop), draws each request's class and service time from a RequestMix, and
// optionally routes through the simulated NIC (RSS -> per-core rings) before
// submitting the request as a task.
#ifndef SRC_NET_LOADGEN_H_
#define SRC_NET_LOADGEN_H_

#include <vector>

#include "src/base/random.h"
#include "src/libos/engine.h"
#include "src/net/nic.h"

namespace skyloft {

struct RequestClass {
  double weight = 1.0;  // relative probability
  ServiceTimeDist dist = ServiceTimeDist::Fixed(Micros(1));
  int kind = 0;
};

using RequestMix = std::vector<RequestClass>;

// Mean service time of the mix in ns (for computing offered load).
double MixMeanNs(const RequestMix& mix);

class PoissonClient {
 public:
  struct Options {
    double rate_rps = 0;          // offered load
    std::uint64_t seed = 1;
    bool rss_route = true;        // steer by flow hash to a worker (RSS)
    DurationNs wire_ns = 0;       // one-way client<->server latency
    std::size_t ring_capacity = 4096;
  };

  PoissonClient(Engine* engine, App* app, RequestMix mix, Options options);

  // Starts generating arrivals; runs until Stop() or simulation end.
  void Start();
  void Stop() { running_ = false; }

  std::uint64_t generated() const { return generated_; }
  const Nic& nic() const { return *nic_; }

 private:
  void ScheduleNext();
  void GenerateOne();
  void Deliver(int queue);

  Engine* engine_;
  App* app_;
  RequestMix mix_;
  Options options_;
  Rng rng_;
  std::unique_ptr<Nic> nic_;
  double total_weight_ = 0;
  bool running_ = false;
  std::uint64_t generated_ = 0;
  std::uint64_t next_flow_ = 1;
};

}  // namespace skyloft

#endif  // SRC_NET_LOADGEN_H_
