// Time types shared by the simulator and the host runtime.
//
// All simulated time is kept in integer nanoseconds (TimeNs). Hardware-level
// costs from the paper are quoted in CPU cycles at the evaluation machine's
// 2.0 GHz nominal frequency; CyclesToNs/NsToCycles convert between the two.
#ifndef SRC_BASE_TIME_H_
#define SRC_BASE_TIME_H_

#include <time.h>

#include <cstdint>

#include "src/base/compiler.h"

namespace skyloft {

using TimeNs = std::int64_t;   // absolute simulated time, ns since boot
using DurationNs = std::int64_t;
using Cycles = std::int64_t;

inline constexpr DurationNs kMicrosecond = 1000;
inline constexpr DurationNs kMillisecond = 1000 * kMicrosecond;
inline constexpr DurationNs kSecond = 1000 * kMillisecond;

// Nominal frequency of the paper's evaluation machine (Intel Xeon Gold 5418Y).
inline constexpr std::int64_t kDefaultCpuHz = 2'000'000'000;

constexpr DurationNs CyclesToNs(Cycles cycles, std::int64_t cpu_hz = kDefaultCpuHz) {
  // ns = cycles * 1e9 / hz. Done in __int128 to avoid overflow for long runs.
  return static_cast<DurationNs>(static_cast<__int128>(cycles) * kSecond / cpu_hz);
}

constexpr Cycles NsToCycles(DurationNs ns, std::int64_t cpu_hz = kDefaultCpuHz) {
  return static_cast<Cycles>(static_cast<__int128>(ns) * cpu_hz / kSecond);
}

constexpr DurationNs Micros(std::int64_t us) { return us * kMicrosecond; }
constexpr DurationNs Millis(std::int64_t ms) { return ms * kMillisecond; }

// Converts a timer frequency in Hz to the tick period in ns.
constexpr DurationNs HzToPeriodNs(std::int64_t hz) { return kSecond / hz; }

// The host's clock: CLOCK_MONOTONIC in ns, the clock std::chrono::steady_clock
// reads on glibc. clock_gettime is async-signal-safe, so the preemption
// handler may call this.
SKYLOFT_SIGNAL_SAFE inline TimeNs HostNowNs() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<TimeNs>(ts.tv_sec) * kSecond + ts.tv_nsec;
}

}  // namespace skyloft

#endif  // SRC_BASE_TIME_H_
