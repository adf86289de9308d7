// Metrics collected by the scheduling engines: request latency, wakeup
// latency (schbench's metric), slowdown (Fig. 8b's metric: total response
// time / service time), throughput, and per-app CPU time (Fig. 7c).
#ifndef SRC_LIBOS_ENGINE_STATS_H_
#define SRC_LIBOS_ENGINE_STATS_H_

#include <array>
#include <cstdint>
#include <string>

#include "src/base/histogram.h"
#include "src/base/metrics.h"
#include "src/base/time.h"

namespace skyloft {

struct EngineStats {
  static constexpr int kMaxKinds = 4;

  LatencyHistogram wakeup_latency;   // task_wakeup -> first instruction, ns
  LatencyHistogram request_latency;  // submit -> completion, ns
  LatencyHistogram slowdown_x100;    // (latency / service) * 100
  std::array<LatencyHistogram, kMaxKinds> latency_by_kind;
  std::array<LatencyHistogram, kMaxKinds> slowdown_by_kind_x100;
  std::uint64_t completed = 0;
  TimeNs epoch_start = 0;

  void Reset(TimeNs now) {
    wakeup_latency.Reset();
    request_latency.Reset();
    slowdown_x100.Reset();
    for (auto& h : latency_by_kind) {
      h.Reset();
    }
    for (auto& h : slowdown_by_kind_x100) {
      h.Reset();
    }
    completed = 0;
    epoch_start = now;
  }

  // Completed requests per second since the last Reset().
  double ThroughputRps(TimeNs now) const {
    const DurationNs window = now - epoch_start;
    if (window <= 0) {
      return 0.0;
    }
    return static_cast<double>(completed) * 1e9 / static_cast<double>(window);
  }

  // Registers every stat on `group` so engine telemetry shows up in the
  // unified MetricsRegistry snapshot; this stats block must outlive `group`.
  void LinkTo(MetricGroup* group) const {
    group->LinkHistogram("wakeup_latency_ns", &wakeup_latency);
    group->LinkHistogram("request_latency_ns", &request_latency);
    group->LinkHistogram("slowdown_x100", &slowdown_x100);
    for (int k = 0; k < kMaxKinds; k++) {
      const std::string suffix = std::to_string(k);
      group->LinkHistogram("latency_by_kind_ns." + suffix,
                           &latency_by_kind[static_cast<std::size_t>(k)]);
      group->LinkHistogram("slowdown_by_kind_x100." + suffix,
                           &slowdown_by_kind_x100[static_cast<std::size_t>(k)]);
    }
    group->LinkValue("completed", [this] { return static_cast<std::int64_t>(completed); });
  }
};

}  // namespace skyloft

#endif  // SRC_LIBOS_ENGINE_STATS_H_
