#include "src/runtime/host_sched.h"

#include "src/base/logging.h"
#include "src/base/mpsc_queue.h"
#include "src/base/random.h"
#include "src/base/ws_deque.h"
#include "src/policies/work_stealing.h"

namespace skyloft {

namespace {

// Per-task state of the lock-free driver, stored in SchedItem::policy_data
// (the driver plays the policy's role, so it owns the policy-defined field).
struct LfRunData {
  DurationNs ran = 0;  // run time since last dequeue; reset on dequeue
};

// At most this many items move per steal — half of a huge backlog would
// turn one steal into a long stop-the-victim scan of CAS traffic.
constexpr std::int64_t kStealBatchMax = 8;
// Lost-race retries against one victim before probing the next.
constexpr int kStealRetries = 2;

}  // namespace

// Lock-free driver state for one worker: the two-level runqueue (DESIGN.md
// section 9) plus a run-next slot. Submissions land in the mailbox (one
// CAS), except that a local one finding every queue empty goes into the
// slot; only the owner touches the slot and the deque's bottom (drain, pop,
// steal-surplus push); thieves CAS the deque's top. Cache-line aligned so
// neighbor workers' queues never share a line.
struct alignas(kCacheLineSize) HostSched::LfWorker {
  explicit LfWorker(std::uint64_t seed) : rng(seed) {}
  WsDeque<SchedItem> deque;
  MpscQueue<SchedItem> mailbox;
  Rng rng;  // victim-probe start, owner-only
  // The run-next slot: at most one item, older than everything in the
  // mailbox and the deque. Owner-only writes; the atomic is for Tick's and
  // ExternalTarget's relaxed cross-thread emptiness reads. Thieves never
  // look at it.
  std::atomic<SchedItem*> run_next{nullptr};
};

HostSched::HostSched(int workers, SchedPolicy* policy)
    : workers_(workers), idle_map_(workers >= 1 ? workers : 1) {
  SKYLOFT_CHECK(workers_ >= 1);
  steals_ = metrics_.AddSharded("steals", workers_);
  mailbox_drains_ = metrics_.AddSharded("mailbox_drains", workers_);
  steal_attempts_ = metrics_.AddSharded("steal_attempts", workers_);
  steal_successes_ = metrics_.AddSharded("steal_successes", workers_);
  cas_retries_ = metrics_.AddSharded("mailbox_cas_retries", workers_);

  // The policy decides the driver.
  policy_ = policy;
  if (policy_ == nullptr) {
    owned_ = std::make_unique<WorkStealingPolicy>(WorkStealingParams{});
    policy_ = owned_.get();
  }

  if (policy_->SupportsLockFree()) {
    lock_free_ = true;
    lf_quantum_.store(NormalizeQuantum(policy_->QuantumFor(), kInfiniteSliceWs),
                      std::memory_order_relaxed);
    lf_.reserve(static_cast<std::size_t>(workers_));
    for (int w = 0; w < workers_; w++) {
      lf_.push_back(
          std::make_unique<LfWorker>(0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(w + 1) + 1));
    }
    return;
  }
  policy_->SchedInit(this);
}

HostSched::~HostSched() = default;

// ---- lock-free driver -------------------------------------------------------

// Cross-worker and external submissions go through the target's mailbox,
// never the deque: the deque's bottom end is strictly owner-written. One
// CAS, no length accounting: placement and preemption read the queues' own
// state (SizeApprox / EmptyApprox) instead of a shared ledger.
void HostSched::LfEnqueue(SchedItem* item, int target) {
  const int retries = lf_[static_cast<std::size_t>(target)]->mailbox.Push(item);
  if (SKYLOFT_UNLIKELY(retries != 0)) {
    cas_retries_->Inc(target, static_cast<std::uint64_t>(retries));
  }
}

// A submission made on `worker`'s own thread. When nothing else waits there
// it takes the run-next slot with a plain store, so the next LfDequeue
// returns it without a CAS or a drain; otherwise it queues behind the
// waiting work in the mailbox. Either way FIFO order holds: the slot only
// ever holds the oldest waiting item. SizeApprox cannot under-read here
// (the owner wrote bottom_, and top_ only grows), and a remote push racing
// the mailbox test is ordered after this submission.
void HostSched::LfEnqueueLocal(SchedItem* item, int worker) {
  LfWorker& me = *lf_[static_cast<std::size_t>(worker)];
  if (me.run_next.load(std::memory_order_relaxed) == nullptr && me.deque.SizeApprox() == 0 &&
      me.mailbox.EmptyApprox()) {
    me.run_next.store(item, std::memory_order_relaxed);
    return;
  }
  LfEnqueue(item, worker);
}

// Waiting items by the queues' own state, readable from any thread: deque
// depth, plus one for an undrained mailbox backlog (its exact size is
// unknowable without draining, which only the owner may do), plus one for
// an occupied run-next slot.
std::int64_t HostSched::LfWaiting(const LfWorker& lw) {
  return lw.deque.SizeApprox() + (lw.mailbox.EmptyApprox() ? 0 : 1) +
         (lw.run_next.load(std::memory_order_relaxed) != nullptr ? 1 : 0);
}

SchedItem* HostSched::LfDequeue(int worker) {
  LfWorker& me = *lf_[static_cast<std::size_t>(worker)];
  // The slot holds the oldest waiting item whenever it is occupied, and the
  // deque is empty then: the slot is filled only when the deque is empty,
  // and nothing pushes into the deque before the slot has been taken.
  SchedItem* item = me.run_next.load(std::memory_order_relaxed);
  const bool from_slot = item != nullptr;
  if (from_slot) {
    me.run_next.store(nullptr, std::memory_order_relaxed);
  } else {
    item = me.deque.PopBottom();
  }
  if ((item == nullptr || from_slot) && !me.mailbox.EmptyApprox()) {
    // Drain the backlog into the empty deque, where thieves can reach it
    // while `item` runs. The chain arrives newest-first, so its TAIL is the
    // oldest submission: with nothing in hand, return that one directly (it
    // never touches the deque); push the rest in chain order, which leaves
    // the oldest at the bottom. Later pops therefore continue in FIFO
    // arrival order — two reversals cancel — while thieves take the newest
    // from the top.
    SchedItem* chain = me.mailbox.DrainReversed();
    if (chain != nullptr) {
      mailbox_drains_->Inc(worker);
      SchedItem* next = MpscQueue<SchedItem>::Next(chain);
      while (next != nullptr) {
        me.deque.PushBottom(chain);
        chain = next;
        next = MpscQueue<SchedItem>::Next(chain);
      }
      if (item == nullptr) {
        item = chain;
      } else {
        me.deque.PushBottom(chain);
      }
    }
  }
  if (item == nullptr && workers_ > 1) {
    item = LfStealHalf(worker);
  }
  if (item != nullptr) {
    item->PolicyData<LfRunData>()->ran = 0;
  }
  return item;
}

// Probe victims from a random start; take half the first non-empty deque
// found (capped at kStealBatchMax). The first stolen item is returned to run
// now, the surplus goes into our own deque. Mailbox backlogs and run-next
// slots are invisible to thieves — only the owner may drain a mailbox or
// take its slot — so a busy worker's undrained submissions cannot be
// rescued here; the preemption tick bounds how long they wait (DESIGN.md
// section 9).
SchedItem* HostSched::LfStealHalf(int worker) {
  LfWorker& me = *lf_[static_cast<std::size_t>(worker)];
  const int start = static_cast<int>(me.rng.NextBelow(static_cast<std::uint64_t>(workers_)));
  for (int i = 0; i < workers_; i++) {
    const int v = (start + i) % workers_;
    if (v == worker) {
      continue;
    }
    LfWorker& victim = *lf_[static_cast<std::size_t>(v)];
    const std::int64_t size = victim.deque.SizeApprox();
    if (size <= 0) {
      continue;
    }
    std::int64_t want = size - size / 2;  // ceil(size / 2)
    if (want > kStealBatchMax) {
      want = kStealBatchMax;
    }
    SchedItem* first = nullptr;
    std::int64_t got = 0;
    int lost = 0;
    while (got < want) {
      SchedItem* stolen = nullptr;
      steal_attempts_->Inc(worker);
      const StealOutcome outcome = victim.deque.Steal(&stolen);
      if (outcome == StealOutcome::kSuccess) {
        steal_successes_->Inc(worker);
        if (first == nullptr) {
          first = stolen;
        } else {
          me.deque.PushBottom(stolen);
        }
        got++;
      } else if (outcome == StealOutcome::kLostRace && got == 0 && ++lost <= kStealRetries) {
        continue;  // contended but non-empty: brief retry before moving on
      } else {
        break;  // empty, or we already hold a batch — stop fighting
      }
    }
    if (got > 0) {
      steals_->Inc(worker, static_cast<std::uint64_t>(got));
      return first;
    }
  }
  return nullptr;
}

// ---- public surface (dispatches per driver) ---------------------------------

SchedItem* HostSched::DequeueLocked(int worker) {
  SchedItem* item = policy_->TaskDequeue(worker);
  if (item == nullptr) {
    policy_->SchedBalance(worker);
    item = policy_->TaskDequeue(worker);
    if (item != nullptr) {
      steals_->Inc(worker);
    }
  }
  return item;
}

void HostSched::Enqueue(SchedItem* item, unsigned flags, int worker_hint) {
  const bool hinted = worker_hint >= 0 && worker_hint < workers_;
  if (lock_free_) {
    // The lock-free discipline is pure FIFO + steal-half: enqueue flags only
    // matter to policies with ordering state, so they are dropped here. So
    // is TaskInit: LfRunData is zero-initialized with the SchedItem itself,
    // so a remote or external submission is exactly one mailbox CAS.
    LfEnqueue(item, hinted ? worker_hint : ExternalTarget());
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (flags & kEnqueueNew) {
    policy_->TaskInit(item);
  }
  policy_->TaskEnqueue(item, flags, hinted ? worker_hint : -1);
}

void HostSched::EnqueueLocal(SchedItem* item, unsigned flags, int worker) {
  if (lock_free_) {
    LfEnqueueLocal(item, worker);  // flags and TaskInit dropped, as in Enqueue
    return;
  }
  Enqueue(item, flags, worker);
}

SchedItem* HostSched::Retire(SchedItem* dead, int worker) {
  if (lock_free_) {
    // task_terminate is a no-op for the FIFO+steal discipline (no per-task
    // policy state to tear down); the exit fast path is just the dequeue.
    (void)dead;
    return LfDequeue(worker);
  }
  std::lock_guard<std::mutex> lock(mu_);
  policy_->TaskTerminate(dead);
  return DequeueLocked(worker);
}

SchedItem* HostSched::Dequeue(int worker) {
  if (lock_free_) {
    return LfDequeue(worker);
  }
  std::lock_guard<std::mutex> lock(mu_);
  return DequeueLocked(worker);
}

SchedItem* HostSched::Requeue(SchedItem* item, unsigned flags, int worker) {
  if (lock_free_) {
    // Self-submit, then dequeue. A yielding uthread that re-enqueues itself
    // queues behind any earlier-arrived work, which pops first — strict
    // yield alternation falls out. Alone, it goes through the run-next slot
    // and comes straight back. If a thief migrates the only item from the
    // deque between the push and the pop, this returns nullptr and the
    // caller's loop goes idle.
    LfEnqueueLocal(item, worker);
    return LfDequeue(worker);
  }
  // task_enqueue + task_dequeue under ONE lock acquisition: the scheduler's
  // yield/preempt completion always re-enqueues the previous uthread and
  // immediately needs the next one, and paying two lock round-trips there
  // dominates the cost of a Yield. Policy call order is identical to
  // Enqueue(worker) followed by Dequeue(worker).
  std::lock_guard<std::mutex> lock(mu_);
  policy_->TaskEnqueue(item, flags, worker);
  return DequeueLocked(worker);
}

bool HostSched::Tick(int worker, SchedItem* current, DurationNs ran_ns) {
  if (lock_free_) {
    // sched_timer_tick without a lock: charge the run time into the item's
    // policy field and preempt once a full quantum has elapsed AND runnable
    // work is waiting somewhere (a relaxed scan of every worker's queues,
    // matching the mutex work-stealing policy's queued_ > 0 test).
    // Reread per tick, not latched at driver selection: the quantum
    // controller retunes it live. A disabled quantum is kInfiniteSliceWs,
    // which `ran` never reaches.
    const DurationNs quantum = lf_quantum_.load(std::memory_order_relaxed);
    if (current == nullptr) {
      return false;
    }
    LfRunData* data = current->PolicyData<LfRunData>();
    data->ran += ran_ns;
    if (data->ran < quantum) {
      return false;
    }
    for (const auto& lw : lf_) {
      if (LfWaiting(*lw) > 0) {
        return true;
      }
    }
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  return policy_->SchedTimerTick(worker, current, ran_ns);
}

int HostSched::ExternalTarget() const {
  const int idle = idle_map_.FindFirstSet();
  if (idle >= 0 && idle < workers_) {
    return idle;
  }
  if (lock_free_) {
    // Least loaded by the queues' own state.
    int best = 0;
    std::int64_t best_len = INT64_MAX;
    for (int w = 0; w < workers_; w++) {
      const std::int64_t len = LfWaiting(*lf_[static_cast<std::size_t>(w)]);
      if (len < best_len) {
        best_len = len;
        best = w;
      }
    }
    return best;
  }
  return -1;  // shard-mutex: the policy places hintless tasks
}

void HostSched::SetIdle(int worker, bool idle) {
  // The idle loop republishes its state every poll round; only transitions
  // touch the shared bitmap word, so steady-state idle polling stays a load.
  if (idle_map_.Test(worker) != idle) {
    if (idle) {
      idle_map_.Set(worker);
    } else {
      idle_map_.Clear(worker);
    }
  }
}

void HostSched::SetQuantum(DurationNs quantum_ns) {
  if (lock_free_) {
    lf_quantum_.store(NormalizeQuantum(quantum_ns, kInfiniteSliceWs), std::memory_order_relaxed);
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  policy_->SetQuantum(quantum_ns);
}

DurationNs HostSched::QuantumFor() const {
  if (lock_free_) {
    return lf_quantum_.load(std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(mu_);
  return policy_->QuantumFor();
}

}  // namespace skyloft
