#include "src/net/loadgen.h"

#include "src/base/logging.h"

namespace skyloft {

double MixMeanNs(const RequestMix& mix) {
  double total_weight = 0;
  double sum = 0;
  for (const RequestClass& cls : mix) {
    total_weight += cls.weight;
    sum += cls.weight * cls.dist.MeanNs();
  }
  SKYLOFT_CHECK(total_weight > 0);
  return sum / total_weight;
}

PoissonClient::PoissonClient(Engine* engine, App* app, RequestMix mix, Options options)
    : engine_(engine),
      app_(app),
      mix_(std::move(mix)),
      options_(options),
      rng_(options.seed) {
  SKYLOFT_CHECK(!mix_.empty());
  SKYLOFT_CHECK(options_.rate_rps > 0);
  for (const RequestClass& cls : mix_) {
    total_weight_ += cls.weight;
  }
  nic_ = std::make_unique<Nic>(&engine_->machine().sim(), engine_->NumWorkers(),
                               options_.wire_ns, options_.ring_capacity,
                               [this](int queue) { Deliver(queue); });
}

void PoissonClient::Start() {
  running_ = true;
  ScheduleNext();
}

void PoissonClient::ScheduleNext() {
  const double mean_gap_ns = 1e9 / options_.rate_rps;
  const auto gap = static_cast<DurationNs>(rng_.NextExponential(mean_gap_ns));
  engine_->machine().sim().ScheduleAfter(gap, [this] {
    if (!running_) {
      return;
    }
    GenerateOne();
    ScheduleNext();
  });
}

void PoissonClient::GenerateOne() {
  generated_++;
  double pick = rng_.NextDouble() * total_weight_;
  const RequestClass* chosen = &mix_.back();
  for (const RequestClass& cls : mix_) {
    if (pick < cls.weight) {
      chosen = &cls;
      break;
    }
    pick -= cls.weight;
  }
  Packet packet;
  packet.flow = next_flow_++;
  packet.sent_at = engine_->Now();
  packet.kind = chosen->kind;
  packet.service_ns = chosen->dist.Sample(rng_);
  nic_->Transmit(packet);
}

void PoissonClient::Deliver(int queue) {
  Packet packet;
  while (nic_->PollQueue(queue, &packet)) {
    Task* task = engine_->NewTask(app_, packet.service_ns, packet.kind);
    const int hint = options_.rss_route ? queue : -1;
    engine_->Submit(task, hint);
  }
}

}  // namespace skyloft
