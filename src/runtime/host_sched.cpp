#include "src/runtime/host_sched.h"

#include <algorithm>
#include <chrono>

#include "src/base/logging.h"
#include "src/base/mpsc_queue.h"
#include "src/base/random.h"
#include "src/base/ws_deque.h"
#include "src/policies/cfs.h"
#include "src/policies/eevdf.h"
#include "src/policies/round_robin.h"
#include "src/policies/work_stealing.h"

namespace skyloft {

namespace {

TimeNs HostNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::unique_ptr<SchedPolicy> MakeHostPolicy(RuntimePolicy policy, std::int64_t time_slice_us) {
  switch (policy) {
    case RuntimePolicy::kFifo:
      return std::make_unique<RoundRobinPolicy>(kInfiniteSlice);
    case RuntimePolicy::kRoundRobin:
      return std::make_unique<RoundRobinPolicy>(
          time_slice_us > 0 ? Micros(time_slice_us) : Micros(12) + 500);
    case RuntimePolicy::kCfs: {
      CfsParams params;
      if (time_slice_us > 0) {
        // The override sets the slice floor; widen sched_latency when the
        // requested granularity would otherwise exceed it, so the dynamic
        // slice actually lengthens instead of saturating at the old latency.
        params.min_granularity = Micros(time_slice_us);
        params.sched_latency = std::max(params.sched_latency, 4 * params.min_granularity);
      }
      return std::make_unique<CfsPolicy>(params);
    }
    case RuntimePolicy::kEevdf: {
      EevdfParams params;
      if (time_slice_us > 0) {
        params.base_slice = Micros(time_slice_us);
      }
      return std::make_unique<EevdfPolicy>(params);
    }
    case RuntimePolicy::kWorkStealing:
      break;
  }
  WorkStealingParams params;
  if (time_slice_us > 0) {
    params.quantum = Micros(time_slice_us);
  }
  return std::make_unique<WorkStealingPolicy>(params);
}

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

// One policy instance plus the EngineView it schedules through. The policy
// sees the runtime's worker indices unchanged.
struct HostSched::Shard : EngineView {
  HostSched* parent = nullptr;
  std::mutex mu;
  std::unique_ptr<SchedPolicy> owned;
  SchedPolicy* policy = nullptr;

  TimeNs Now() const override { return HostNowNs(); }
  int NumWorkers() const override { return parent->workers_; }
  int WorkerCore(int index) const override { return index; }
  bool IsWorkerIdle(int index) const override { return parent->idle_map_.Test(index); }
};

// Lock-free driver state for one worker: the two-level runqueue (DESIGN.md
// section 9). All submissions land in the mailbox (one CAS); only the owner
// touches the deque's bottom (drain, pop, steal-surplus push); thieves CAS
// the deque's top. Cache-line aligned so neighbor workers' queues never
// share a line.
struct alignas(kCacheLineSize) HostSched::LfWorker {
  explicit LfWorker(std::uint64_t seed, DurationNs quantum_ns) : rng(seed), quantum(quantum_ns) {}
  WsDeque<SchedItem> deque;
  MpscQueue<SchedItem> mailbox;
  Rng rng;  // victim-probe start, owner-only
  // Preemption quantum the lock-free Tick path enforces for this worker;
  // 0 disables tick preemption. Written by SetQuantum (any thread), reread
  // relaxed on every tick — a tick racing an update sees either quantum,
  // both of which were valid moments ago.
  std::atomic<DurationNs> quantum;
};

HostSched::HostSched(int workers, const HostSchedOptions& options)
    : workers_(workers), idle_map_(workers >= 1 ? workers : 1) {
  SKYLOFT_CHECK(workers_ >= 1);
  steals_ = metrics_.AddSharded("steals", workers_);
  mailbox_drains_ = metrics_.AddSharded("mailbox_drains", workers_);
  steal_attempts_ = metrics_.AddSharded("steal_attempts", workers_);
  steal_successes_ = metrics_.AddSharded("steal_successes", workers_);
  cas_retries_ = metrics_.AddSharded("mailbox_cas_retries", workers_);

  approx_len_ = std::make_unique<HotLine[]>(static_cast<std::size_t>(workers_));

  // Build (or adopt) one policy instance first: it decides the driver.
  SchedPolicy* selected = options.custom_policy;
  std::unique_ptr<SchedPolicy> owned;
  if (selected == nullptr) {
    owned = MakeHostPolicy(options.policy, options.time_slice_us);
    selected = owned.get();
  }

  if (selected->SupportsLockFree() && !options.force_locked) {
    lock_free_ = true;
    lf_policy_ = selected;
    lf_owned_ = std::move(owned);
    const DurationNs quantum = selected->LockFreeQuantumNs();
    lf_.reserve(static_cast<std::size_t>(workers_));
    for (int w = 0; w < workers_; w++) {
      lf_.push_back(std::make_unique<LfWorker>(
          0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(w + 1) + 1, quantum));
    }
    return;
  }

  shard_ = std::make_unique<Shard>();
  shard_->parent = this;
  shard_->owned = std::move(owned);  // null when adopting custom_policy
  shard_->policy = selected;
  shard_->policy->SchedInit(shard_.get());
}

HostSched::~HostSched() = default;

// ---- lock-free driver -------------------------------------------------------

// All submissions — local, cross-worker, external — go through the target's
// mailbox, never the deque: the deque's bottom end is strictly owner-written,
// so no caller needs to know whether it IS the owner. One CAS, no length
// accounting: placement and preemption read the queues' own state
// (SizeApprox / EmptyApprox) instead of a shared ledger.
void HostSched::LfEnqueue(SchedItem* item, int target) {
  const int retries = lf_[static_cast<std::size_t>(target)]->mailbox.Push(item);
  if (SKYLOFT_UNLIKELY(retries != 0)) {
    cas_retries_->Inc(target, static_cast<std::uint64_t>(retries));
  }
}

SchedItem* HostSched::LfDequeue(int worker) {
  LfWorker& me = *lf_[static_cast<std::size_t>(worker)];
  SchedItem* item = me.deque.PopBottom();
  if (item == nullptr && !me.mailbox.EmptyApprox()) {
    // Drain the backlog. The chain arrives newest-first, so its TAIL is the
    // oldest submission: return that one directly (it never touches the
    // deque — the single-item yield cycle costs one CAS plus one exchange)
    // and push the rest in chain order, which leaves the oldest of the
    // remainder at the bottom. Later pops therefore continue in FIFO
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
      item = chain;
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
// now, the surplus goes into our own deque. Mailbox backlogs are invisible
// to thieves — only the owner may drain a mailbox — so a busy worker's
// undrained submissions cannot be rescued here; the preemption tick bounds
// how long they wait (DESIGN.md section 9).
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

void HostSched::Enqueue(SchedItem* item, unsigned flags, int worker_hint) {
  if (lock_free_) {
    // The lock-free discipline is pure FIFO + steal-half: enqueue flags only
    // matter to policies with ordering state, so they are dropped here.
    const int target =
        (worker_hint >= 0 && worker_hint < workers_) ? worker_hint : ExternalTarget();
    LfEnqueue(item, target);
    return;
  }
  const bool hinted = worker_hint >= 0 && worker_hint < workers_;
  // Length accounting only informs cross-worker placement; skip the atomic
  // on a single-worker runtime.
  if (hinted && workers_ > 1) {
    approx_len_[worker_hint].len.fetch_add(1, std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(shard_->mu);
  shard_->policy->TaskEnqueue(item, flags, hinted ? worker_hint : -1);
}

void HostSched::EnqueueNew(SchedItem* item, unsigned flags, int worker_hint) {
  if (lock_free_) {
    // TaskInit is policy state the lock-free driver replaces: LfRunData is
    // zero-initialized with the SchedItem itself, so a new item needs no
    // extra init step and the spawn path is exactly one mailbox CAS.
    const int target =
        (worker_hint >= 0 && worker_hint < workers_) ? worker_hint : ExternalTarget();
    LfEnqueue(item, target);
    return;
  }
  const bool hinted = worker_hint >= 0 && worker_hint < workers_;
  if (hinted && workers_ > 1) {
    approx_len_[worker_hint].len.fetch_add(1, std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(shard_->mu);
  shard_->policy->TaskInit(item);
  shard_->policy->TaskEnqueue(item, flags, hinted ? worker_hint : -1);
}

SchedItem* HostSched::Retire(SchedItem* dead, int worker) {
  if (lock_free_) {
    // task_terminate is a no-op for the FIFO+steal discipline (no per-task
    // policy state to tear down); the exit fast path is just the dequeue.
    (void)dead;
    return LfDequeue(worker);
  }
  SchedItem* next;
  {
    std::lock_guard<std::mutex> lock(shard_->mu);
    shard_->policy->TaskTerminate(dead);
    next = shard_->policy->TaskDequeue(worker);
    if (next == nullptr) {
      shard_->policy->SchedBalance(worker);
      next = shard_->policy->TaskDequeue(worker);
      if (next != nullptr) {
        steals_->Inc(worker);
      }
    }
  }
  if (next != nullptr && workers_ > 1) {
    int len = approx_len_[worker].len.load(std::memory_order_relaxed);
    while (len > 0 &&
           !approx_len_[worker].len.compare_exchange_weak(len, len - 1,
                                                          std::memory_order_relaxed)) {
    }
  }
  return next;
}

SchedItem* HostSched::Dequeue(int worker) {
  if (lock_free_) {
    return LfDequeue(worker);
  }
  SchedItem* item;
  {
    std::lock_guard<std::mutex> lock(shard_->mu);
    item = shard_->policy->TaskDequeue(worker);
    if (item == nullptr) {
      shard_->policy->SchedBalance(worker);
      item = shard_->policy->TaskDequeue(worker);
      if (item != nullptr) {
        steals_->Inc(worker);
      }
    }
  }
  if (item != nullptr && workers_ > 1) {
    // Approximate: the item may have migrated from another worker's queue,
    // in which case that worker's counter stays high until it drains.
    int len = approx_len_[worker].len.load(std::memory_order_relaxed);
    while (len > 0 &&
           !approx_len_[worker].len.compare_exchange_weak(len, len - 1,
                                                          std::memory_order_relaxed)) {
    }
  }
  return item;
}

SchedItem* HostSched::Requeue(SchedItem* item, unsigned flags, int worker) {
  if (lock_free_) {
    // Self-submit through the mailbox, then dequeue. Because the deque is
    // drained FIFO, a yielding uthread that re-enqueues itself pops any
    // earlier-arrived work first — strict yield alternation falls out. If a
    // thief migrates the only item (possibly `item` itself) between the push
    // and the pop, this returns nullptr and the caller's loop goes idle.
    LfEnqueue(item, worker);
    return LfDequeue(worker);
  }
  // task_enqueue + task_dequeue under ONE lock acquisition: the scheduler's
  // yield/preempt completion always re-enqueues the previous uthread and
  // immediately needs the next one, and paying two lock round-trips there
  // dominates the cost of a Yield. Policy call order is identical to
  // Enqueue(worker) followed by Dequeue(worker).
  SchedItem* next;
  {
    std::lock_guard<std::mutex> lock(shard_->mu);
    shard_->policy->TaskEnqueue(item, flags, worker);
    next = shard_->policy->TaskDequeue(worker);
    if (next == nullptr) {
      shard_->policy->SchedBalance(worker);
      next = shard_->policy->TaskDequeue(worker);
      if (next != nullptr) {
        steals_->Inc(worker);
      }
    }
  }
  // Net queue-length change for `worker` is zero when the dequeue succeeded;
  // only the (policy placed the item elsewhere and found nothing) corner
  // needs the enqueue side of the accounting.
  if (next == nullptr && workers_ > 1) {
    approx_len_[worker].len.fetch_add(1, std::memory_order_relaxed);
  }
  return next;
}

bool HostSched::Tick(int worker, SchedItem* current, DurationNs ran_ns) {
  if (lock_free_) {
    // sched_timer_tick without a lock: charge the run time into the item's
    // policy field and preempt once a full quantum has elapsed AND runnable
    // work is waiting somewhere (own queues first — O(1) — then a relaxed
    // scan of the other workers' queues, matching the mutex work-stealing
    // policy's queued_ > 0 test).
    const LfWorker& me = *lf_[static_cast<std::size_t>(worker)];
    // Reread per tick, not latched at driver selection: the quantum
    // controller retunes it live.
    const DurationNs quantum = me.quantum.load(std::memory_order_relaxed);
    if (current == nullptr || quantum == 0) {
      return false;
    }
    LfRunData* data = current->PolicyData<LfRunData>();
    data->ran += ran_ns;
    if (data->ran < quantum) {
      return false;
    }
    if (me.deque.SizeApprox() > 0 || !me.mailbox.EmptyApprox()) {
      return true;
    }
    for (int v = 0; v < workers_; v++) {
      if (v == worker) {
        continue;
      }
      const LfWorker& other = *lf_[static_cast<std::size_t>(v)];
      if (other.deque.SizeApprox() > 0 || !other.mailbox.EmptyApprox()) {
        return true;
      }
    }
    return false;
  }
  std::lock_guard<std::mutex> lock(shard_->mu);
  return shard_->policy->SchedTimerTick(worker, current, ran_ns);
}

int HostSched::ExternalTarget() const {
  const int idle = idle_map_.FindFirstSet();
  if (idle >= 0 && idle < workers_) {
    return idle;
  }
  if (lock_free_) {
    // Least loaded by the queues' own state: deque depth plus one for an
    // undrained mailbox backlog (its exact size is unknowable without
    // draining, which only the owner may do).
    int best = 0;
    std::int64_t best_len = INT64_MAX;
    for (int w = 0; w < workers_; w++) {
      const LfWorker& lw = *lf_[static_cast<std::size_t>(w)];
      const std::int64_t len = lw.deque.SizeApprox() + (lw.mailbox.EmptyApprox() ? 0 : 1);
      if (len < best_len) {
        best_len = len;
        best = w;
      }
    }
    return best;
  }
  int best = 0;
  int best_len = approx_len_[0].len.load(std::memory_order_relaxed);
  for (int w = 1; w < workers_; w++) {
    const int len = approx_len_[w].len.load(std::memory_order_relaxed);
    if (len < best_len) {
      best_len = len;
      best = w;
    }
  }
  return best;
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

std::size_t HostSched::Queued() const {
  if (lock_free_) {
    // Deque depths plus one per undrained mailbox backlog — an undercount
    // while submissions sit in mailboxes, exact once every worker has
    // drained (the only states observable without being each queue's owner).
    std::size_t total = 0;
    for (int w = 0; w < workers_; w++) {
      const LfWorker& lw = *lf_[static_cast<std::size_t>(w)];
      total += static_cast<std::size_t>(lw.deque.SizeApprox());
      if (!lw.mailbox.EmptyApprox()) {
        total += 1;
      }
    }
    return total;
  }
  std::lock_guard<std::mutex> lock(shard_->mu);
  return shard_->policy->QueuedTasks();
}

void HostSched::SetQuantum(DurationNs quantum_ns, int worker) {
  if (lock_free_) {
    // Normalize to the lock-free driver's convention: 0 disables tick
    // preemption (both "<= 0" and the policies' INT64_MAX-style infinite
    // sentinel mean "never preempt on a tick").
    DurationNs q = quantum_ns;
    if (q <= 0 || q == INT64_MAX) {
      q = 0;
    }
    if (worker >= 0 && worker < workers_) {
      lf_[static_cast<std::size_t>(worker)]->quantum.store(q, std::memory_order_relaxed);
    } else {
      for (int w = 0; w < workers_; w++) {
        lf_[static_cast<std::size_t>(w)]->quantum.store(q, std::memory_order_relaxed);
      }
    }
    return;
  }
  std::lock_guard<std::mutex> lock(shard_->mu);
  shard_->policy->SetQuantum(quantum_ns,
                             worker >= 0 && worker < workers_ ? worker : SchedPolicy::kAllWorkers);
}

DurationNs HostSched::QuantumFor(int worker) const {
  if (worker < 0 || worker >= workers_) {
    worker = 0;
  }
  if (lock_free_) {
    return lf_[static_cast<std::size_t>(worker)]->quantum.load(std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(shard_->mu);
  return shard_->policy->QuantumFor(worker);
}

const char* HostSched::PolicyName() const {
  if (lock_free_) {
    return lf_policy_->Name();
  }
  return shard_->policy->Name();
}

}  // namespace skyloft
