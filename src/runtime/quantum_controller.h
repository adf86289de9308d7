// Adaptive preemption-quantum controller (ROADMAP item 2, the
// LibPreemptible direction; DESIGN.md section 13).
//
// Fig. 8b shows the fixed-quantum tradeoff: smaller quanta strictly help
// bimodal workloads (short requests stop waiting behind long ones) but cost
// interrupt volume; larger quanta shed tick overhead but let head-of-line
// blocking explode the short-request tail. No static quantum wins when the
// workload mix shifts, so this slow-path feedback controller retunes the
// quantum (and the preemption-timer period) online from *windowed* latency
// snapshots — LatencyHistogram::DeltaSince against per-poll baselines, since
// cumulative histograms cannot see a regime change — plus interrupt-volume
// counters.
//
// The control law is substrate-neutral and deliberately model-free: it never
// guesses WHY the tail is bad (tick overhead and head-of-line blocking both
// inflate p99), it probes. While p99 slowdown is near the SLO it hill-climbs:
// move the quantum one step in the current direction, and if the windowed
// p99 got materially worse since the last move, flip direction; at a clamp
// it parks (the clamp is the best known point when the SLO is unattainable)
// until the tail materially worsens again. While p99 is comfortable it sheds
// cost: relax the quantum when tick volume exceeds the per-core budget, else
// hold. One wasted probe per regime change is the price of never misreading
// the cause.
//
// Everything here runs on a slow path (a periodic event in the sim, or a
// caller's own thread on the host) — never on a worker, never in a signal
// handler. The fast-path knob it drives is lock-free to read: HostSched's
// one atomic quantum, or a sim policy's plain field mutated from the single
// event loop. The host runtime's timer period is fixed per
// Runtime, so on the host the controller can only move the quantum.
#ifndef SRC_RUNTIME_QUANTUM_CONTROLLER_H_
#define SRC_RUNTIME_QUANTUM_CONTROLLER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/base/histogram.h"
#include "src/base/time.h"
#include "src/base/trace.h"

namespace skyloft {

struct QuantumControllerConfig {
  // Tail-latency target: windowed p99 slowdown (latency / service time,
  // x100) the controller steers against. 1000 = 10x.
  std::int64_t slo_slowdown_x100 = 1000;
  // Enter the hill-climbing (congested) regime when windowed p99 slowdown
  // reaches tighten_at * SLO; the band between the two thresholds is
  // hysteresis where the quantum holds.
  double tighten_at = 0.8;
  // Below relax_below * SLO the tail is comfortable: relax the quantum if
  // tick volume exceeds the budget, else hold.
  double relax_below = 0.5;
  // Quantum clamp. The max is finite on purpose: the controller can always
  // climb back down, whereas a true "infinite" quantum produces no
  // preemption signal to learn from.
  DurationNs quantum_min = Micros(2);
  DurationNs quantum_max = Micros(200);
  DurationNs quantum_initial = Micros(15);
  // Multiplicative step sizes (tighten divides, relax multiplies).
  double tighten_div = 2.0;
  double relax_mul = 1.5;
  // A previous move is judged harmful (direction flips) when windowed p99
  // worsened by more than this fraction since that move; the same threshold
  // lets the probe leave a clamp it parked at. High enough that window-to-
  // window p99 noise (a p99 over ~50 samples is roughly the 2nd-worst
  // sample) does not trigger spurious excursions; a real regime shift moves
  // p99 by multiples, not tens of percent.
  double flip_worsen_frac = 0.5;
  // Windows with fewer total completions than this are noise: hold.
  std::uint64_t min_window_samples = 32;
  // EWMA weight of the newest window in the steering p99 (1.0 = unsmoothed).
  // A windowed p99 over ~50 samples is roughly the window's 2nd-worst sample
  // — noisy enough to cross the congestion thresholds on luck alone — so
  // controllers polling small windows should smooth. Regime shifts move the
  // tail by multiples, which still crosses a threshold in one or two
  // windows at 0.3-0.5.
  double signal_ewma = 1.0;
  // Per-core tick-rate budget: in the comfortable regime, tick volume above
  // this is overhead worth shedding.
  double tick_budget_per_core_hz = 150e3;
  // Preemption-timer period tracks the quantum: period = quantum *
  // timer_period_frac, clamped to [timer_period_min, timer_period_max].
  // Ticking faster than the quantum keeps quantum-overrun detection latency
  // below one quantum; ticking slower would quantize preemption to the
  // timer instead.
  double timer_period_frac = 0.5;
  DurationNs timer_period_min = Micros(2);
  DurationNs timer_period_max = Micros(100);
};

// One poll window's worth of control inputs, already rate-normalized.
struct QuantumWindowSignals {
  // Steering tail: the protected kind's windowed p99 when protected
  // histograms are watched, else the overall windowed p99 (possibly
  // EWMA-smoothed). -1: no usable tail this window.
  std::int64_t p99_slowdown_x100 = -1;
  // Samples behind the steering tail. 0 with total_samples high is itself a
  // signal: traffic flowed but none of it is tail-protected, so preemption
  // is pure overhead this window (uniform regime) — relax.
  std::uint64_t samples = 0;
  std::uint64_t total_samples = 0;  // all completions in the window
  double ticks_per_core_per_sec = 0;
  double preempts_per_core_per_sec = 0;
};

// The pure control law: quantum in, quantum out, no I/O — unit-testable
// without an engine. Stateful (direction + last windowed p99) because the
// hill-climb compares consecutive windows.
class QuantumControlLaw {
 public:
  explicit QuantumControlLaw(const QuantumControllerConfig& config) : config_(config) {}

  // One control step: returns the quantum to use for the next window
  // (== `current` means hold).
  DurationNs Step(DurationNs current, const QuantumWindowSignals& signals);

  // Last direction the congested-regime probe moves in.
  bool tightening() const { return direction_ == Direction::kTighten; }

 private:
  enum class Direction { kTighten, kRelax };
  enum class Move { kNone, kTighten, kRelax };

  DurationNs Tighten(DurationNs q) const;
  DurationNs Relax(DurationNs q) const;

  QuantumControllerConfig config_;
  Direction direction_ = Direction::kTighten;
  Move last_move_ = Move::kNone;
  double last_p99_ = -1;  // windowed p99 slowdown (x100) at the previous step
};

// Glue around the law: watches cumulative histograms/counters, computes the
// interval window each Poll, applies quantum/timer decisions through caller
// hooks, and records history + quantum_set trace events for plotting.
class QuantumController {
 public:
  struct Hooks {
    // Required: apply `quantum_ns`, the one quantum every worker enforces.
    // E.g. Runtime::SetQuantum or policy->SetQuantum + sim timer
    // reprogramming.
    std::function<void(DurationNs quantum_ns)> apply_quantum;
    // Optional: retune the preemption-timer period.
    std::function<void(DurationNs period_ns)> apply_timer_period;
  };

  struct HistoryPoint {
    TimeNs when = 0;
    DurationNs quantum_ns = 0;
  };

  QuantumController(QuantumControllerConfig config, Hooks hooks);

  // Registers a cumulative slowdown histogram (values x100) to steer by.
  // Multiple watches are window-merged. The pointer must outlive the
  // controller; the histogram may be Reset() (e.g. warmup discard) — the
  // saturating delta absorbs it.
  void WatchSlowdown(const LatencyHistogram* histogram);

  // Registers the slowdown histogram of a *protected* request kind (the
  // short requests the quantum exists to shield from head-of-line blocking;
  // typically slowdown_by_kind[kKindShort]). When any protected histogram
  // is watched, the law steers by the protected tail instead of the overall
  // one, and a window with traffic but zero protected completions reads as
  // "nothing to protect" — the quantum relaxes toward the ceiling rather
  // than holding. Same lifetime/Reset contract as WatchSlowdown.
  void WatchProtected(const LatencyHistogram* histogram);

  // Registers cumulative tick / preemption counters (monotonic readers).
  void WatchTicks(std::function<std::uint64_t()> reader, int cores);
  void WatchPreempts(std::function<std::uint64_t()> reader);

  // Attaches a tracer: every quantum change emits a kQuantumSet counter
  // event, so quantum-vs-time plots straight from the Perfetto JSON.
  void SetTracer(SchedTracer* tracer) { tracer_ = tracer; }

  // One control step at time `now` (sim time or host HostNowNs — any
  // monotonic ns clock, used for rates and history stamps). The first call
  // only primes baselines. Call from a slow path; not signal-safe.
  void Poll(TimeNs now);

  DurationNs quantum() const { return quantum_; }
  const std::vector<HistoryPoint>& history() const { return history_; }
  std::uint64_t polls() const { return polls_; }
  std::uint64_t adjustments() const { return adjustments_; }

  // Applies the initial quantum (and timer period) through the hooks and
  // stamps history at `now`. Call once before the workload starts so the
  // plumbing begins in a known state.
  void ApplyInitial(TimeNs now);

 private:
  struct Watched {
    const LatencyHistogram* histogram;
    LatencyHistogram baseline;
  };

  void Apply(TimeNs now, DurationNs quantum_ns);

  QuantumControllerConfig config_;
  Hooks hooks_;
  QuantumControlLaw law_;
  std::vector<Watched> watched_;
  std::vector<Watched> protected_watched_;
  double smoothed_p99_ = -1;  // EWMA state of the steering tail (x100)
  std::function<std::uint64_t()> ticks_reader_;
  std::function<std::uint64_t()> preempts_reader_;
  int tick_cores_ = 1;
  std::uint64_t last_ticks_ = 0;
  std::uint64_t last_preempts_ = 0;
  SchedTracer* tracer_ = nullptr;
  DurationNs quantum_;
  TimeNs last_poll_ = -1;
  bool primed_ = false;
  std::uint64_t polls_ = 0;
  std::uint64_t adjustments_ = 0;
  std::vector<HistoryPoint> history_;
};

}  // namespace skyloft

#endif  // SRC_RUNTIME_QUANTUM_CONTROLLER_H_
