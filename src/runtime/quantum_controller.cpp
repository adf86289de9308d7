#include "src/runtime/quantum_controller.h"

#include <algorithm>

#include "src/base/logging.h"

namespace skyloft {

DurationNs QuantumControlLaw::Tighten(DurationNs q) const {
  const auto next = static_cast<DurationNs>(static_cast<double>(q) / config_.tighten_div);
  return std::max(config_.quantum_min, next);
}

DurationNs QuantumControlLaw::Relax(DurationNs q) const {
  const auto next = static_cast<DurationNs>(static_cast<double>(q) * config_.relax_mul);
  return std::min(config_.quantum_max, std::max(next, q + 1));
}

DurationNs QuantumControlLaw::Step(DurationNs current, const QuantumWindowSignals& signals) {
  if (signals.total_samples < config_.min_window_samples) {
    // Too few samples to trust (the controller polls faster than requests
    // arrive at low load): hold, and drop the move memory — comparing p99
    // across an idle gap would attribute the gap's noise to our last move.
    last_move_ = Move::kNone;
    return current;
  }
  if (signals.samples == 0) {
    // Traffic flowed but none of it is tail-protected: there is nothing for
    // preemption to shield this window (uniform regime), so the quantum is
    // pure tick/switch overhead — relax toward the ceiling. Drop the tail
    // memory: the next protected window starts a fresh probe downward.
    const DurationNs next = Relax(current);
    direction_ = Direction::kTighten;
    last_move_ = next > current ? Move::kRelax : Move::kNone;
    last_p99_ = -1;
    return next;
  }
  if (signals.p99_slowdown_x100 < 0) {
    last_move_ = Move::kNone;
    return current;
  }
  const double p99 = static_cast<double>(signals.p99_slowdown_x100);
  const double slo = static_cast<double>(config_.slo_slowdown_x100);
  const bool congested = p99 >= config_.tighten_at * slo;
  const bool comfortable = p99 < config_.relax_below * slo;

  DurationNs next = current;
  if (congested) {
    // Hill-climb. Both failure modes inflate p99 — head-of-line blocking
    // (wants a smaller quantum) and tick/preemption overhead (wants a larger
    // one) — and the window cannot tell them apart, so probe: keep moving in
    // the current direction while it does not hurt, and when the previous
    // move made the windowed p99 materially worse, move back the way we
    // came. The reversal keys off last_move_, not direction_: other branches
    // (the comfortable relax, the hold) reset direction_, so it does not
    // reliably point the way of the move being judged.
    const bool worsened = last_p99_ >= 0 && p99 > last_p99_ * (1.0 + config_.flip_worsen_frac);
    if (last_move_ != Move::kNone && worsened) {
      direction_ = last_move_ == Move::kRelax ? Direction::kTighten : Direction::kRelax;
    }
    // Pinned against a clamp: when the SLO is simply unattainable the clamp
    // is the best known point, so park there — bouncing off it every window
    // would spend half the windows at a worse quantum.
    //
    // The two clamps part ways on when to leave. At the *floor*, park
    // unconditionally: a congested window that reads worse than the last
    // cannot distinguish tail noise (a p99 over ~50 samples is roughly the
    // 2nd-worst sample) from a regime shift, and the cost asymmetry is
    // brutal — probing up from the floor in a head-of-line regime multiplies
    // the short-request tail by the relax step for the whole window. The
    // regime that genuinely wants a bigger quantum (uniform tasks where
    // slicing only adds overhead) surfaces as a *comfortable* tail with high
    // tick volume, which the comfortable branch below relaxes on its own.
    // At the *ceiling* no such safe exit exists, so a materially worsened
    // window (a regime shift toward head-of-line blocking) re-probes down.
    bool park = false;
    if (current <= config_.quantum_min) {
      // Unconditional even when the flip above just pointed kRelax (the move
      // into the floor read as worsened): that read is exactly the noise
      // case, and future probes should still head down first.
      park = true;
      direction_ = Direction::kTighten;
    } else if (direction_ == Direction::kRelax && current >= config_.quantum_max) {
      if (worsened) {
        direction_ = Direction::kTighten;
      } else {
        park = true;
      }
    }
    if (!park) {
      next = direction_ == Direction::kTighten ? Tighten(current) : Relax(current);
    }
  } else if (comfortable &&
             signals.ticks_per_core_per_sec > config_.tick_budget_per_core_hz) {
    // Tail has headroom and interrupt volume dominates: shed overhead.
    next = Relax(current);
    direction_ = Direction::kTighten;  // next congestion episode probes down first
  } else {
    // Hysteresis band (or comfortable with ticks within budget): hold.
    direction_ = Direction::kTighten;
  }

  last_move_ = next < current ? Move::kTighten : next > current ? Move::kRelax : Move::kNone;
  last_p99_ = p99;
  return next;
}

QuantumController::QuantumController(QuantumControllerConfig config, Hooks hooks)
    : config_(config),
      hooks_(std::move(hooks)),
      law_(config),
      quantum_(config.quantum_initial) {
  SKYLOFT_CHECK(hooks_.apply_quantum != nullptr);
  SKYLOFT_CHECK(config_.quantum_min > 0);
  SKYLOFT_CHECK(config_.quantum_min <= config_.quantum_initial);
  SKYLOFT_CHECK(config_.quantum_initial <= config_.quantum_max);
}

void QuantumController::WatchSlowdown(const LatencyHistogram* histogram) {
  SKYLOFT_CHECK(histogram != nullptr);
  watched_.push_back(Watched{histogram, *histogram});
}

void QuantumController::WatchProtected(const LatencyHistogram* histogram) {
  SKYLOFT_CHECK(histogram != nullptr);
  protected_watched_.push_back(Watched{histogram, *histogram});
}

void QuantumController::WatchTicks(std::function<std::uint64_t()> reader, int cores) {
  ticks_reader_ = std::move(reader);
  tick_cores_ = cores >= 1 ? cores : 1;
  last_ticks_ = ticks_reader_();
}

void QuantumController::WatchPreempts(std::function<std::uint64_t()> reader) {
  preempts_reader_ = std::move(reader);
  last_preempts_ = preempts_reader_();
}

void QuantumController::Apply(TimeNs now, DurationNs quantum_ns) {
  hooks_.apply_quantum(quantum_ns);
  if (hooks_.apply_timer_period != nullptr) {
    const auto scaled = static_cast<DurationNs>(static_cast<double>(quantum_ns) *
                                                config_.timer_period_frac);
    hooks_.apply_timer_period(
        std::clamp(scaled, config_.timer_period_min, config_.timer_period_max));
  }
  history_.push_back(HistoryPoint{now, quantum_ns});
  if (tracer_ != nullptr) {
    // Counter event; the task_id field carries the quantum in ns (trace.h).
    tracer_->Record(now, TraceEventType::kQuantumSet, /*worker=*/-1,
                    static_cast<std::uint64_t>(quantum_ns), /*app_id=*/-1);
  }
}

void QuantumController::ApplyInitial(TimeNs now) {
  Apply(now, quantum_);
}

void QuantumController::Poll(TimeNs now) {
  polls_++;
  if (!primed_ || now <= last_poll_) {
    // First poll (or a non-advancing clock): snapshot baselines only.
    for (Watched& w : watched_) {
      w.baseline = *w.histogram;
    }
    for (Watched& w : protected_watched_) {
      w.baseline = *w.histogram;
    }
    if (ticks_reader_ != nullptr) {
      last_ticks_ = ticks_reader_();
    }
    if (preempts_reader_ != nullptr) {
      last_preempts_ = preempts_reader_();
    }
    last_poll_ = now;
    primed_ = true;
    return;
  }

  const double window_sec = static_cast<double>(now - last_poll_) / 1e9;
  LatencyHistogram window;
  for (Watched& w : watched_) {
    window.Merge(w.histogram->DeltaSince(w.baseline));
    w.baseline = *w.histogram;
  }
  LatencyHistogram protected_window;
  for (Watched& w : protected_watched_) {
    protected_window.Merge(w.histogram->DeltaSince(w.baseline));
    w.baseline = *w.histogram;
  }

  // Steer by the protected kind's tail when one is watched, else by the
  // overall tail. The steering p99 is EWMA-smoothed (config.signal_ewma);
  // protected-empty windows leave the EWMA untouched — there is no tail to
  // learn from, and the law reads the emptiness itself as the signal.
  const bool has_protected = !protected_watched_.empty();
  const LatencyHistogram& steer = has_protected ? protected_window : window;
  QuantumWindowSignals signals;
  signals.samples = steer.Count();
  signals.total_samples = watched_.empty() ? steer.Count() : window.Count();
  if (steer.Count() == 0) {
    signals.p99_slowdown_x100 = -1;
  } else {
    const double raw = static_cast<double>(steer.Percentile(0.99));
    smoothed_p99_ = smoothed_p99_ < 0
                        ? raw
                        : config_.signal_ewma * raw + (1 - config_.signal_ewma) * smoothed_p99_;
    signals.p99_slowdown_x100 = static_cast<std::int64_t>(smoothed_p99_);
  }
  if (ticks_reader_ != nullptr) {
    const std::uint64_t ticks = ticks_reader_();
    const std::uint64_t delta = ticks >= last_ticks_ ? ticks - last_ticks_ : 0;
    signals.ticks_per_core_per_sec =
        static_cast<double>(delta) / window_sec / static_cast<double>(tick_cores_);
    last_ticks_ = ticks;
  }
  if (preempts_reader_ != nullptr) {
    const std::uint64_t preempts = preempts_reader_();
    const std::uint64_t delta = preempts >= last_preempts_ ? preempts - last_preempts_ : 0;
    signals.preempts_per_core_per_sec =
        static_cast<double>(delta) / window_sec / static_cast<double>(tick_cores_);
    last_preempts_ = preempts;
  }
  last_poll_ = now;

  const DurationNs next = law_.Step(quantum_, signals);
  if (next != quantum_) {
    quantum_ = next;
    adjustments_++;
    Apply(now, next);
  }
}

}  // namespace skyloft
