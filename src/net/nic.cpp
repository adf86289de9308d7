#include "src/net/nic.h"

#include "src/base/logging.h"

namespace skyloft {

Nic::Nic(Simulation* sim, int num_queues, DurationNs wire_latency_ns,
         std::size_t ring_capacity, DeliverCallback deliver)
    : sim_(sim),
      num_queues_(num_queues),
      wire_latency_ns_(wire_latency_ns),
      deliver_(std::move(deliver)) {
  SKYLOFT_CHECK(num_queues > 0);
  rings_.reserve(static_cast<std::size_t>(num_queues));
  for (int q = 0; q < num_queues; q++) {
    rings_.push_back(std::make_unique<SpscRing<Packet>>(ring_capacity));
  }
}

std::uint32_t Nic::RssHash(std::uint64_t flow) {
  // splitmix64 finalizer: uniform enough to stand in for Toeplitz RSS.
  std::uint64_t z = flow + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return static_cast<std::uint32_t>(z);
}

void Nic::Transmit(const Packet& packet) {
  const int queue = QueueFor(packet.flow);
  sim_->ScheduleAfter(wire_latency_ns_, [this, queue, packet] {
    if (!rings_[static_cast<std::size_t>(queue)]->TryPush(packet)) {
      drops_++;
      return;
    }
    delivered_++;
    if (deliver_) {
      deliver_(queue);
    }
  });
}

bool Nic::PollQueue(int queue, Packet* out) {
  SKYLOFT_CHECK(queue >= 0 && queue < num_queues_);
  return rings_[static_cast<std::size_t>(queue)]->TryPop(out);
}

}  // namespace skyloft
