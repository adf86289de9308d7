// Simulated NIC with Receive Side Scaling (paper §3.5).
//
// Mirrors the dataplane layout Skyloft borrows from IX/Shenango: a DPDK poll
// core takes packets off the wire and spreads them across per-core
// descriptor rings by RSS hash; isolated worker cores consume their rings.
// The rings are real SPSC rings (bounded, drop-counted) so overload behaviour
// is observable.
#ifndef SRC_NET_NIC_H_
#define SRC_NET_NIC_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/base/ring_buffer.h"
#include "src/base/time.h"
#include "src/simcore/simulation.h"

namespace skyloft {

struct Packet {
  std::uint64_t flow = 0;       // 5-tuple stand-in: selects the RSS queue
  std::uint32_t length = 64;    // bytes on the wire
  TimeNs sent_at = 0;           // client timestamp
  int kind = 0;                 // request class (GET/SET/SCAN/...)
  DurationNs service_ns = 0;    // server-side work this request carries
};

class Nic {
 public:
  // `deliver` runs (in simulated time) whenever a packet lands in a ring;
  // the consumer should drain with PollQueue().
  using DeliverCallback = std::function<void(int queue)>;

  Nic(Simulation* sim, int num_queues, DurationNs wire_latency_ns, std::size_t ring_capacity,
      DeliverCallback deliver);

  // RSS hash: 64-bit finalizer over the flow id (stands in for Toeplitz).
  static std::uint32_t RssHash(std::uint64_t flow);

  int QueueFor(std::uint64_t flow) const {
    return static_cast<int>(RssHash(flow) % static_cast<std::uint32_t>(num_queues_));
  }

  // Puts a packet on the wire; it reaches its RSS queue after the wire
  // latency, or increments the drop counter if the ring is full.
  void Transmit(const Packet& packet);

  // Consumer side: pops one packet from `queue`; false when empty.
  bool PollQueue(int queue, Packet* out);

  std::uint64_t drops() const { return drops_; }
  std::uint64_t delivered() const { return delivered_; }
  int num_queues() const { return num_queues_; }
  DurationNs wire_latency() const { return wire_latency_ns_; }

 private:
  Simulation* sim_;
  int num_queues_;
  DurationNs wire_latency_ns_;
  std::vector<std::unique_ptr<SpscRing<Packet>>> rings_;
  DeliverCallback deliver_;
  std::uint64_t drops_ = 0;
  std::uint64_t delivered_ = 0;
};

}  // namespace skyloft

#endif  // SRC_NET_NIC_H_
