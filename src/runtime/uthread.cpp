#include "src/runtime/uthread.h"

#include <link.h>
#include <pthread.h>
#include <sched.h>
#include <ucontext.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <ctime>
#include <vector>

#include "src/base/logging.h"
#include "src/runtime/context.h"

// ThreadSanitizer cannot follow hand-rolled stack switches on its own: every
// uthread stack is announced as a TSan "fiber" and each skyloft_ctx_switch
// is bracketed by __tsan_switch_to_fiber so the race detector tracks the
// happens-before of the scheduler correctly.
#if defined(__SANITIZE_THREAD__)
#define SKYLOFT_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SKYLOFT_TSAN 1
#endif
#endif

#ifdef SKYLOFT_TSAN
extern "C" {
void* __tsan_get_current_fiber(void);
void* __tsan_create_fiber(unsigned flags);
void __tsan_destroy_fiber(void* fiber);
void __tsan_switch_to_fiber(void* fiber, unsigned flags);
}
#endif

// AddressSanitizer likewise needs each stack switch announced, or its
// interceptors flag the new stack pointer as outside the pthread's stack.
// Protocol: __sanitizer_start_switch_fiber (with the DESTINATION stack's
// bounds, saving the departing context's fake-stack handle) immediately
// before the switch; __sanitizer_finish_switch_fiber (with the handle this
// context saved when it last left) immediately after landing. A null save
// slot on a definitive exit destroys the departing fiber's fake stack.
#if defined(__SANITIZE_ADDRESS__)
#define SKYLOFT_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SKYLOFT_ASAN 1
#endif
#endif

#ifdef SKYLOFT_ASAN
extern "C" {
void __sanitizer_start_switch_fiber(void** fake_stack_save, const void* bottom, size_t size);
void __sanitizer_finish_switch_fiber(void* fake_stack_save, const void** bottom_old,
                                     size_t* size_old);
void __asan_unpoison_memory_region(void const volatile* addr, size_t size);
}
#endif

namespace skyloft {

namespace {

// One runtime at a time may be running; the static API resolves through this.
Runtime* g_runtime = nullptr;

// What the uthread asked the scheduler to do when it switched out.
//   kPark: nothing to complete (Park published itself before switching);
//   the scheduler runs the uthread Park left it in RuntimeWorker::handoff.
//   kTick: the preemption timer fired; the scheduler runs sched_timer_tick
//   and either requeues the uthread (preempt) or resumes it directly.
enum class SwitchAction : std::uint8_t { kNone, kYield, kPark, kTick, kExit };

// Direct Park-to-uthread handoffs a worker makes between two passes of its
// scheduler loop. Each pass polls the worker's I/O engine, so a Park/Unpark
// ping-pong cannot starve it for more than this many segments.
constexpr int kDirectHandoffBudget = 64;

constexpr int kPreemptSignal = SIGURG;

// --- Async-preemption safe points -----------------------------------------
//
// The preemption signal can land anywhere, including inside glibc's malloc.
// glibc's tcache is per-pthread and LOCKLESS: it assumes one execution
// context per pthread. If the handler switches away mid-allocation and this
// pthread then runs another uthread that also allocates, the half-updated
// tcache is corrupted ("malloc(): unaligned tcache chunk", random segfaults).
// The same applies to any libc/ld state keyed on the pthread (stdio lock
// ownership, the dynamic-loader lock during lazy PLT resolution, ...).
//
// Like Go's asynchronous preemption, we only preempt at safe points: the
// handler reads the interrupted PC and defers (returns, letting the next
// timer period retry) unless the PC is inside the main executable's own
// text. Application compute — the paper's preemption target — lives there;
// the non-reentrant per-thread state lives in the shared libraries.
struct TextRange {
  std::uintptr_t lo = 0;
  std::uintptr_t hi = 0;
};
TextRange g_exe_text[8];
int g_exe_text_count = 0;

int CollectExeText(struct dl_phdr_info* info, std::size_t /*size*/, void* /*data*/) {
  if (info->dlpi_name != nullptr && info->dlpi_name[0] != '\0') {
    return 0;  // a shared object; the main executable has the empty name
  }
  for (int i = 0; i < info->dlpi_phnum; i++) {
    const auto& ph = info->dlpi_phdr[i];
    if (ph.p_type == PT_LOAD && (ph.p_flags & PF_X) != 0 &&
        g_exe_text_count < static_cast<int>(sizeof(g_exe_text) / sizeof(g_exe_text[0]))) {
      g_exe_text[g_exe_text_count].lo = info->dlpi_addr + ph.p_vaddr;
      g_exe_text[g_exe_text_count].hi = info->dlpi_addr + ph.p_vaddr + ph.p_memsz;
      g_exe_text_count++;
    }
  }
  return 0;
}

bool PreemptSafePc(std::uintptr_t pc) {
  if (g_exe_text_count == 0) {
    return true;  // no map (fully static build?) — preempt everywhere
  }
  for (int i = 0; i < g_exe_text_count; i++) {
    if (pc >= g_exe_text[i].lo && pc < g_exe_text[i].hi) {
      return true;
    }
  }
  return false;
}

// Switch-out entry points (Runtime::Current, Yield, Park, ExitCurrent and
// PreemptGuard's constructor) load tl_worker and then act on that worker:
// read its current uthread, or raise a preempt depth. A tick landing
// between the two steps could migrate the uthread, leaving it acting on the
// old worker, or on whatever uthread that worker runs now. They live in one
// text section, bounded by the linker's __start_/__stop_ symbols, and the
// handler defers on any PC inside it. The switch primitive,
// skyloft_ctx_switch (context.cpp), is placed there too. noinline keeps the
// entry points' bodies out of callers' text.
//
// The preemption handler, PreemptTick and CurrentErrnoLocation live there
// too. The kernel blocks the signal while the handler runs, but a preempted
// uthread resumes inside its handler with the signal unblocked. A tick that
// then preempted it again, before the handler returned, would stack one
// more signal frame; at periods the worker cannot keep up with, every
// resume did so until the uthread stack overflowed.
#define SKYLOFT_SWITCH_ENTRY __attribute__((noinline, section("skyloft_switch_entry")))
extern "C" const char __start_skyloft_switch_entry[] __attribute__((visibility("hidden")));
extern "C" const char __stop_skyloft_switch_entry[] __attribute__((visibility("hidden")));

bool InSwitchEntry(std::uintptr_t pc) {
  return pc >= reinterpret_cast<std::uintptr_t>(__start_skyloft_switch_entry) &&
         pc < reinterpret_cast<std::uintptr_t>(__stop_skyloft_switch_entry);
}

void TsanSwitchTo(void* fiber) {
#ifdef SKYLOFT_TSAN
  __tsan_switch_to_fiber(fiber, 0);
#else
  (void)fiber;
#endif
}

SKYLOFT_SIGNAL_SAFE void AsanStartSwitch(void** fake_stack_save, const void* bottom,
                                         std::size_t size) {
#ifdef SKYLOFT_ASAN
  __sanitizer_start_switch_fiber(fake_stack_save, bottom, size);
#else
  (void)fake_stack_save;
  (void)bottom;
  (void)size;
#endif
}

SKYLOFT_SIGNAL_SAFE void AsanFinishSwitch(void* fake_stack_save) {
#ifdef SKYLOFT_ASAN
  __sanitizer_finish_switch_fiber(fake_stack_save, nullptr, nullptr);
#else
  (void)fake_stack_save;
#endif
}

void AsanUnpoisonStack(const void* stack, std::size_t size) {
#ifdef SKYLOFT_ASAN
  __asan_unpoison_memory_region(stack, size);
#else
  (void)stack;
  (void)size;
#endif
}

// glibc marks __errno_location() __attribute__((const)), so the compiler
// reuses one pointer for every `errno` in a frame — including across a
// context switch that migrates the uthread to another pthread, where the
// cached pointer names the WRONG thread's errno. This helper re-derives the
// location on every call; the asm clobber stops const/pure inference.
SKYLOFT_RETURNS_TLS SKYLOFT_SIGNAL_SAFE SKYLOFT_SWITCH_ENTRY int* CurrentErrnoLocation() {
  asm volatile("" ::: "memory");
  return &errno;
}

// Per-core workers (DESIGN.md section 9): worker i gets the i-th highest CPU
// of the calling thread's affinity mask, highest first because the lowest
// CPUs take most device interrupts. Empty — every worker left unpinned,
// inheriting the caller's mask — when the mask holds fewer CPUs than there
// are workers, so an oversubscribed runtime never stacks two workers on one
// CPU.
std::vector<int> WorkerCpus(int workers) {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(mask), &mask) != 0) {
    return cpus;
  }
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0 && static_cast<int>(cpus.size()) < workers; cpu--) {
    if (CPU_ISSET(cpu, &mask)) {
      cpus.push_back(cpu);
    }
  }
  if (static_cast<int>(cpus.size()) < workers) {
    cpus.clear();
  }
  return cpus;
}

// Restricts the calling thread to `cpu`. A refusal (the CPU went offline, or
// a cgroup narrowed the mask since WorkerCpus read it) leaves the thread on
// its inherited mask, which is where an unpinned worker runs anyway.
void PinCurrentThread(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
}

}  // namespace

struct RuntimeWorker {
  Runtime* runtime = nullptr;
  int index = 0;

  // The policy layer; every Table 2 op this worker makes passes `index`.
  HostSched* sched = nullptr;

  void* sched_sp = nullptr;
  UThread* current = nullptr;
  SwitchAction action = SwitchAction::kNone;
  // When `current` was switched in (or last charged by a tick): the base for
  // the ran_ns passed to sched_timer_tick.
  std::int64_t run_charge = 0;
  // When `current` was switched in, on the trace clock: the start of the
  // occupancy span the scheduler emits when the uthread switches back out.
  // Separate from run_charge, which is conditional on the signal timer.
  std::int64_t trace_run_start = 0;

  // The scheduler stack's on_cpu flag for skyloft_ctx_switch; nothing waits
  // on it (the scheduler stack is never switched into by another worker).
  std::atomic<bool> sched_on_cpu{false};
  // Direct handoffs Park may still make before the next scheduler pass.
  int handoffs_left = 0;
  // A uthread Park dequeued but left to the scheduler stack, because it was
  // still leaving another worker's CPU (see Park).
  UThread* handoff = nullptr;

  void* tsan_fiber = nullptr;  // the worker's scheduler stack, under TSan

  // ASan fiber bookkeeping: the pthread stack's bounds (the switch target
  // when a uthread switches out) and the scheduler context's fake-stack
  // handle, saved while a uthread runs.
  const void* asan_stack_bottom = nullptr;
  std::size_t asan_stack_size = 0;
  void* asan_fake_stack = nullptr;
};

namespace {
thread_local RuntimeWorker* tl_worker = nullptr;

// A uthread's preempt-disable depth (UThread::preempt_count) is written
// only by the pthread running the uthread and read only by that pthread's
// own signal handler, so a plain load+store updates it: no other CPU races
// the write, and the handler either runs before it or after it. The signal
// fences keep the compiler from moving the guarded section across the
// update.
// Always inlined, so the increment sits inside a switch entry's own text.
SKYLOFT_SIGNAL_SAFE [[gnu::always_inline]] inline void PreemptDepthInc(std::atomic<int>& depth) {
  depth.store(depth.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  std::atomic_signal_fence(std::memory_order_seq_cst);
}

SKYLOFT_SIGNAL_SAFE void PreemptDepthDec(std::atomic<int>& depth) {
  std::atomic_signal_fence(std::memory_order_seq_cst);
  depth.store(depth.load(std::memory_order_relaxed) - 1, std::memory_order_relaxed);
}

// Switches the running uthread `self` out to its worker's scheduler stack,
// which then carries out `action`. Returns when `self` is switched back in,
// possibly on another worker, so nothing here touches `worker` after the
// switch.
SKYLOFT_SIGNAL_SAFE void SwitchToScheduler(RuntimeWorker* worker, UThread* self,
                                           SwitchAction action) {
  worker->action = action;
  TsanSwitchTo(worker->tsan_fiber);
  // An exiting fiber leaves for good: a null save slot destroys its fake stack.
  AsanStartSwitch(action == SwitchAction::kExit ? nullptr : &self->asan_fake_stack,
                  worker->asan_stack_bottom, worker->asan_stack_size);
  skyloft_ctx_switch(&self->sp, worker->sched_sp, &self->on_cpu);
  AsanFinishSwitch(self->asan_fake_stack);
}
}  // namespace

Runtime::Runtime(RuntimeOptions options) : options_(options) {
  SKYLOFT_CHECK(options_.workers >= 1);
  SKYLOFT_CHECK(options_.stack_size >= 4096);
  SKYLOFT_CHECK(options_.preempt_period_us <= 0 ||
                options_.preempt_period_us >= kMinPreemptPeriodUs)
      << "preempt_period_us " << options_.preempt_period_us << " is below the "
      << kMinPreemptPeriodUs << " us floor: a worker cannot keep up with shorter ticks";
  sched_ = std::make_unique<HostSched>(options_.workers, options_.policy);
  preemptions_ = metrics_.AddCounter("preemptions");
  preempt_deferrals_ = metrics_.AddCounter("preempt_deferrals");
  external_placements_ = metrics_.AddCounter("external_placements");
  metrics_.LinkValue("live_uthreads", [this] { return live_uthreads_.load(std::memory_order_relaxed); });
  tracer_ = options_.tracer;
  for (int i = 0; i < options_.workers; i++) {
    auto worker = std::make_unique<RuntimeWorker>();
    worker->runtime = this;
    worker->index = i;
    worker->sched = sched_.get();
    workers_.push_back(std::move(worker));
  }
  if (options_.io_engine) {
    io_stats_.polls = io_metrics_.AddSharded("polls", options_.workers);
    io_stats_.events = io_metrics_.AddSharded("events", options_.workers);
    io_stats_.wakeups = io_metrics_.AddSharded("wakeups", options_.workers);
    io_stats_.registered = io_metrics_.AddSharded("registered", options_.workers);
    io_stats_.retired = io_metrics_.AddSharded("retired", options_.workers);
    // Data-path syscall accounting (the bench's syscalls/request family):
    // engines count every read/write/accept their completion-shaped API
    // makes.
    io_stats_.sys_read = io_metrics_.AddSharded("sys_read", options_.workers);
    io_stats_.sys_write = io_metrics_.AddSharded("sys_write", options_.workers);
    io_stats_.sys_accept = io_metrics_.AddSharded("sys_accept", options_.workers);
    for (int i = 0; i < options_.workers; i++) {
      engines_.push_back(std::make_unique<IoEngine>(i, io_stats_));
    }
  }
}

std::uint64_t Runtime::io_data_syscalls() const {
  if (engines_.empty()) {
    return 0;
  }
  return io_stats_.sys_read->Value() + io_stats_.sys_write->Value() +
         io_stats_.sys_accept->Value();
}

Runtime::~Runtime() {
#ifdef SKYLOFT_TSAN
  for (auto& t : uthreads_) {
    __tsan_destroy_fiber(t->tsan_fiber);
  }
#endif
}

UThread* Runtime::AllocUthread(std::function<void()> fn) {
  UThread* t = nullptr;
  {
    std::lock_guard<std::mutex> lock(pool_lock_);
    if (!free_pool_.empty()) {
      t = free_pool_.back();
      free_pool_.pop_back();
    }
  }
  if (t == nullptr) {
    auto owned = std::make_unique<UThread>();
    t = owned.get();
    // for_overwrite: zero-initializing would touch (and commit) every stack
    // page up front, which at 10k+ connection-handler uthreads is hundreds
    // of MB of RSS for pages most uthreads never reach.
    t->stack = std::make_unique_for_overwrite<unsigned char[]>(options_.stack_size);
#ifdef SKYLOFT_TSAN
    t->tsan_fiber = __tsan_create_fiber(0);
#endif
    std::lock_guard<std::mutex> lock(pool_lock_);
    uthreads_.push_back(std::move(owned));
  }
  t->fn = std::move(fn);
  t->park.store(UThread::kParkRunning, std::memory_order_relaxed);
  t->preempt_count.store(1, std::memory_order_relaxed);  // UthreadMain lowers it
  t->joiners.store(nullptr, std::memory_order_relaxed);
  t->asan_fake_stack = nullptr;  // a recycled uthread is a fresh fiber
  // A recycled stack still carries ASan poison from the frames its previous
  // incarnation abandoned at its final context switch (ExitCurrent never
  // returns, so no epilogue unpoisons them); clear it before reuse.
  AsanUnpoisonStack(t->stack.get(), options_.stack_size);
  t->sp = InitContext(t->stack.get(), options_.stack_size, &Runtime::UthreadMain, t);
  // Fresh id every incarnation: policies use it for deterministic
  // tie-breaking (CFS), and recycled uthreads are logically new tasks.
  // task_init runs later, fused with the first enqueue (see Schedule).
  t->id = next_uthread_id_.fetch_add(1, std::memory_order_relaxed);
  return t;
}

void Runtime::FreeUthread(UThread* thread) {
  std::lock_guard<std::mutex> lock(pool_lock_);
  free_pool_.push_back(thread);
}

void Runtime::Run(std::function<void()> main_fn) {
  SKYLOFT_CHECK(g_runtime == nullptr) << "only one Runtime may run at a time";
  g_runtime = this;
  stopping_.store(false);

  // Install the preemption signal handler (idempotent). SA_SIGINFO: the
  // handler needs the interrupted PC for the safe-point check.
  if (options_.preempt_period_us > 0) {
    if (g_exe_text_count == 0) {
      dl_iterate_phdr(&CollectExeText, nullptr);
    }
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_sigaction = &Runtime::PreemptSignalHandler;
    // No SA_NODEFER: the kernel blocks the signal while the handler runs.
    // With it, a 10 us timer on Linux 6.18 sometimes delivered ticks back
    // to back (some under 256 ns apart), each on the previous handler's
    // first instruction, and the signal frames nested until the stack
    // overflowed. A handler that only counted ticks crashed the same way.
    sa.sa_flags = SA_RESTART | SA_SIGINFO;
    sigemptyset(&sa.sa_mask);
    SKYLOFT_CHECK(sigaction(kPreemptSignal, &sa, nullptr) == 0);
  }

  live_uthreads_.store(1);
  UThread* main_thread = AllocUthread(std::move(main_fn));
  Schedule(main_thread, kEnqueueNew);  // external submission: placed idle-first

  const std::vector<int> cpus = WorkerCpus(options_.workers);
  for (int i = 0; i < options_.workers; i++) {
    const int cpu = cpus.empty() ? -1 : cpus[static_cast<std::size_t>(i)];
    worker_threads_.emplace_back([this, i, cpu] {
      if (cpu >= 0) {
        PinCurrentThread(cpu);
      }
      WorkerLoop(i);
    });
  }

  // Wait for every user thread to finish, waking each sleeper at its
  // deadline on the way. Unpark runs outside sleep_lock_: it may enqueue.
  std::unique_lock<std::mutex> lock(sleep_lock_);
  while (live_uthreads_.load(std::memory_order_acquire) > 0) {
    const auto earliest = sleepers_.begin();
    if (earliest == sleepers_.end()) {
      sleep_cv_.wait(lock);
    } else if (earliest->first > std::chrono::steady_clock::now()) {
      sleep_cv_.wait_until(lock, earliest->first);
    } else {
      UThread* due = earliest->second;
      sleepers_.erase(earliest);
      lock.unlock();
      Unpark(due);
      lock.lock();
    }
  }
  lock.unlock();
  stopping_.store(true);
  for (auto& t : worker_threads_) {
    t.join();
  }
  worker_threads_.clear();
  g_runtime = nullptr;
}

void Runtime::SleepFor(std::int64_t duration_us) {
  Runtime* rt = g_runtime;
  SKYLOFT_CHECK(rt != nullptr);
  UThread* self = Current();
  {
    Runtime::PreemptGuard guard;
    std::lock_guard<std::mutex> lock(rt->sleep_lock_);
    const auto it = rt->sleepers_.emplace(
        std::chrono::steady_clock::now() + std::chrono::microseconds(duration_us), self);
    if (it == rt->sleepers_.begin()) {
      rt->sleep_cv_.notify_one();  // Run() waits for an earlier deadline
    }
  }
  Park();
}

void Runtime::WorkerLoop(int index) {
  RuntimeWorker* worker = workers_[static_cast<std::size_t>(index)].get();
  tl_worker = worker;
#ifdef SKYLOFT_TSAN
  worker->tsan_fiber = __tsan_get_current_fiber();
#endif
#ifdef SKYLOFT_ASAN
  {
    // Uthreads switching out target this pthread's stack; ASan needs its
    // bounds at every such start_switch_fiber call.
    pthread_attr_t attr;
    SKYLOFT_CHECK(pthread_getattr_np(pthread_self(), &attr) == 0);
    void* stack_addr = nullptr;
    std::size_t stack_size = 0;
    SKYLOFT_CHECK(pthread_attr_getstack(&attr, &stack_addr, &stack_size) == 0);
    pthread_attr_destroy(&attr);
    worker->asan_stack_bottom = stack_addr;
    worker->asan_stack_size = stack_size;
  }
#endif

  // This worker's preemption timer: a CLOCK_MONOTONIC POSIX timer whose
  // SIGURG the kernel delivers to this thread alone, every period — the host
  // stand-in for the paper's per-core user timer interrupt. The signal only
  // enters the scheduler; the policy's sched_timer_tick decides whether to
  // preempt.
  timer_t timer{};
  const std::int64_t period_us = options_.preempt_period_us;
  if (period_us > 0) {
    struct sigevent sev;
    std::memset(&sev, 0, sizeof(sev));
    sev.sigev_notify = SIGEV_THREAD_ID;
    sev.sigev_signo = kPreemptSignal;
    sev._sigev_un._tid = gettid();  // glibc < 2.37 lacks sigev_notify_thread_id
    SKYLOFT_CHECK(timer_create(CLOCK_MONOTONIC, &sev, &timer) == 0);
    struct itimerspec spec;
    spec.it_interval.tv_sec = static_cast<time_t>(period_us / 1000000);
    spec.it_interval.tv_nsec = static_cast<long>(period_us % 1000000 * 1000);
    spec.it_value = spec.it_interval;
    SKYLOFT_CHECK(timer_settime(timer, 0, &spec, nullptr) == 0);
  }

  IoEngine* engine = io_engine(index);

  // `next` carries a directly-resumed uthread past the dequeue (a timer tick
  // the policy declined to turn into a preemption).
  UThread* next = nullptr;
  while (!stopping_.load(std::memory_order_relaxed)) {
    // Engine-core duty: drain socket readiness between uthread segments so a
    // NIC wakeup becomes a runnable uthread within one scheduling round. The
    // resulting Unparks enqueue through THIS worker's runqueue — the
    // remote-enqueue mailbox path when the handler uthread was stolen.
    if (engine != nullptr) {
      engine->Poll();
    }
    worker->handoffs_left = kDirectHandoffBudget;
    if (next == nullptr) {
      // task_dequeue, with sched_balance / steal-half as the idle fallback.
      next = static_cast<UThread*>(worker->sched->Dequeue(index));
    }
    if (next == nullptr) {
      worker->sched->SetIdle(index, true);
      std::this_thread::yield();
      continue;
    }
    worker->sched->SetIdle(index, false);
    SwitchTo(worker, nullptr, next);
    next = nullptr;

    // Back on the scheduler stack (the last uthread of the segment chain
    // switched out, its preempt depth raised): complete whatever it asked.
    UThread* prev = worker->current;
    worker->current = nullptr;
    if (tracer_ != nullptr) {
      // Occupancy span for the segment that just ended ("ph":"X" in the
      // chrome-trace output). Recorded here, not in the uthread, so exits
      // and preemption entries are covered too.
      const std::int64_t span_end = HostNowNs();
      tracer_->RecordEvent(worker->trace_run_start, TraceEventType::kRun, index, prev->id, 0,
                           span_end - worker->trace_run_start);
    }
    const SwitchAction action = worker->action;
    worker->action = SwitchAction::kNone;
    switch (action) {
      case SwitchAction::kYield:
        // Fused enqueue+dequeue: one shard-lock round trip on the hot path.
        next = static_cast<UThread*>(worker->sched->Requeue(prev, kEnqueueYield, index));
        break;
      case SwitchAction::kTick: {
        // sched_timer_tick with the wall time the uthread ran since it was
        // switched in (or last ticked); the policy decides preemption.
        const std::int64_t ran_ns = HostNowNs() - worker->run_charge;
        if (worker->sched->Tick(index, prev, ran_ns)) {
          preemptions_->Inc();
          if (tracer_ != nullptr) {
            tracer_->RecordEvent(HostNowNs(), TraceEventType::kPreempt, index, prev->id, 0);
          }
          next = static_cast<UThread*>(worker->sched->Requeue(prev, kEnqueuePreempted, index));
          // The tick's handler switched away without returning, so the
          // kernel's block on the signal still holds on this pthread: lift it
          // before another uthread runs here. `prev` gets its own mask back
          // from its signal frame when it resumes and the handler returns.
          sigset_t tick_signal;
          sigemptyset(&tick_signal);
          sigaddset(&tick_signal, kPreemptSignal);
          SKYLOFT_CHECK(pthread_sigmask(SIG_UNBLOCK, &tick_signal, nullptr) == 0);
        } else {
          next = prev;  // resume without touching the runqueues
        }
        break;
      }
      case SwitchAction::kPark:
        next = worker->handoff;
        worker->handoff = nullptr;
        break;
      case SwitchAction::kExit: {
        // Fused task_terminate + task_dequeue, then release the storage.
        next = static_cast<UThread*>(worker->sched->Retire(prev, index));
        FreeUthread(prev);
        if (live_uthreads_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          // The last uthread is gone: Run() returns. Notified under the lock,
          // so Run cannot read the count and then miss this wakeup.
          std::lock_guard<std::mutex> lock(sleep_lock_);
          sleep_cv_.notify_one();
        }
        break;
      }
      case SwitchAction::kNone:
        SKYLOFT_CHECK(false) << "uthread switched out without an action";
    }
  }
  if (period_us > 0) {
    SKYLOFT_CHECK(timer_delete(timer) == 0);
  }
  tl_worker = nullptr;
}

void Runtime::SwitchTo(RuntimeWorker* worker, UThread* prev, UThread* next) {
  // A racing Unpark may have queued `next` here while its Park was still
  // switching out on another worker; run it only once it has left its stack.
  for (SpinBackoff backoff; next->on_cpu.load(std::memory_order_acquire);) {
    backoff.Pause();
  }
  next->on_cpu.store(true, std::memory_order_relaxed);
  // Whoever queued `next` woke it first: a parked uthread here means it was
  // queued twice.
  SKYLOFT_CHECK(next->park.load(std::memory_order_relaxed) != UThread::kParkParked)
      << "switching into a parked uthread";
  worker->current = next;
  // run_charge feeds sched_timer_tick; without the signal timer nothing
  // reads it, and the clock call would tax every switch (~30 ns here).
  if (options_.preempt_period_us > 0) {
    worker->run_charge = HostNowNs();
  }
  if (tracer_ != nullptr) {
    const std::int64_t now = HostNowNs();
    if (prev != nullptr) {
      // A direct handoff ends prev's segment here; segments that end on the
      // scheduler stack are recorded there.
      tracer_->RecordEvent(worker->trace_run_start, TraceEventType::kRun, worker->index, prev->id,
                           0, now - worker->trace_run_start);
    }
    worker->trace_run_start = now;
    tracer_->RecordEvent(now, TraceEventType::kAssign, worker->index, next->id, 0);
  }
  // The departing context: `prev`, or this worker's scheduler stack.
  void** save_sp = prev != nullptr ? &prev->sp : &worker->sched_sp;
  std::atomic<bool>* out_on_cpu = prev != nullptr ? &prev->on_cpu : &worker->sched_on_cpu;
  void** asan_save = prev != nullptr ? &prev->asan_fake_stack : &worker->asan_fake_stack;
  TsanSwitchTo(next->tsan_fiber);
  AsanStartSwitch(asan_save, next->stack.get(), options_.stack_size);
  skyloft_ctx_switch(save_sp, next->sp, out_on_cpu);
  // Back in the departing context. A uthread may have resumed on another
  // worker: `worker` is stale here.
  AsanFinishSwitch(*asan_save);
}

// skylint:allow(preempt-balance) -- lowers the depth AllocUthread started at 1; never returns
void Runtime::UthreadMain(void* arg) {
  AsanFinishSwitch(nullptr);  // first entry on this stack: nothing to restore
  auto* self = static_cast<UThread*>(arg);
  // Landed: from here a tick may preempt this uthread.
  PreemptDepthDec(self->preempt_count);
  self->fn();
  g_runtime->ExitCurrent();
  SKYLOFT_CHECK(false) << "resumed an exited uthread";
}

SKYLOFT_SWITCH_ENTRY UThread* Runtime::Current() {
  SKYLOFT_CHECK(tl_worker != nullptr && tl_worker->current != nullptr)
      << "not inside a user thread";
  return tl_worker->current;
}

UThread* Runtime::Spawn(std::function<void()> fn) {
  Runtime* rt = g_runtime;
  SKYLOFT_CHECK(rt != nullptr);
  PreemptGuard guard;
  rt->live_uthreads_.fetch_add(1, std::memory_order_acq_rel);
  UThread* t = rt->AllocUthread(std::move(fn));
  rt->Schedule(t, kEnqueueNew);
  return t;
}

// Precondition: uthread-context callers hold a PreemptGuard (Spawn and
// Unpark do) — the shard lock must not be interrupted by the signal timer.
void Runtime::Schedule(UThread* thread, unsigned flags) {
  RuntimeWorker* worker = tl_worker;
  if (worker != nullptr) {
    // On a worker: its own runqueue, through the run-next slot when nothing
    // else waits there.
    sched_->EnqueueLocal(thread, flags, worker->index);
    return;
  }
  // Off-runtime submission (external Unpark, Run()'s main thread): place on
  // the first idle worker, else on the least-loaded queue (lock-free) or
  // wherever the policy puts a hintless task (shard-mutex).
  external_placements_->Inc();
  sched_->Enqueue(thread, flags, sched_->ExternalTarget());
}

// Switch-out protocol (Yield / PreemptTick / Park): raise the uthread's own
// preempt depth before setting anything the scheduler acts on, and lower it
// after the switch returns. The raise closes the window between setting
// `action` and reaching the scheduler stack — a tick landing there would
// overwrite the action — and keeps every tick on the scheduler stack
// deferred while this uthread is its worker's `current`. The lowering comes
// after the sanitizer's finish-switch call, so the resumed uthread closes
// its own window, on whichever worker it resumed. `self` is a local: nothing
// after the switch touches tl_worker or `worker`, which may be stale (the
// uthread may have migrated, and the compiler may have cached the old
// pthread's TLS slot address from before the switch).
SKYLOFT_SWITCH_ENTRY void Runtime::Yield() {
  RuntimeWorker* worker = tl_worker;
  SKYLOFT_CHECK(worker != nullptr && worker->current != nullptr);
  UThread* self = worker->current;
  PreemptDepthInc(self->preempt_count);
  SwitchToScheduler(worker, self, SwitchAction::kYield);
  PreemptDepthDec(self->preempt_count);
}

// Signal-timer entry: hand control to the scheduler stack so the policy tick
// (which takes the shard lock — unsafe in signal context) runs there.
SKYLOFT_SWITCH_ENTRY void Runtime::PreemptTick() {
  RuntimeWorker* worker = tl_worker;
  UThread* self = worker->current;
  PreemptDepthInc(self->preempt_count);
  SwitchToScheduler(worker, self, SwitchAction::kTick);
  PreemptDepthDec(self->preempt_count);
}

// Park publishes itself as parked before it switches out, then — when its
// worker has another runnable uthread — switches straight to it instead of
// going through the scheduler stack (DESIGN.md, "Switch protocol"). A
// PreemptGuard held across Park stacks on the same depth.
SKYLOFT_SWITCH_ENTRY void Runtime::Park() {
  RuntimeWorker* worker = tl_worker;
  SKYLOFT_CHECK(worker != nullptr && worker->current != nullptr);
  UThread* self = worker->current;
  std::atomic<int>& depth = self->preempt_count;
  PreemptDepthInc(depth);
  int expected = UThread::kParkRunning;
  if (!self->park.compare_exchange_strong(expected, UThread::kParkParked,
                                          std::memory_order_acq_rel)) {
    // An unpark already arrived: consume it and keep running.
    SKYLOFT_CHECK(expected == UThread::kParkUnparkPending);
    self->park.store(UThread::kParkRunning, std::memory_order_relaxed);
    PreemptDepthDec(depth);
    return;
  }
  // Parked and published: an Unpark may now queue us on any worker, which
  // then waits in SwitchTo until we have left this stack.
  UThread* next = nullptr;
  if (worker->handoffs_left > 0) {
    next = static_cast<UThread*>(worker->sched->Dequeue(worker->index));
    if (next == self) {
      // A racing Unpark queued us here: keep running.
      PreemptDepthDec(depth);
      return;
    }
    if (next != nullptr && !next->on_cpu.load(std::memory_order_acquire)) {
      worker->handoffs_left--;
      worker->runtime->SwitchTo(worker, self, next);
      PreemptDepthDec(depth);
      return;
    }
  }
  // Nothing runnable here, the handoff budget is spent, or `next` is still
  // leaving another worker's CPU. The scheduler stack waits for it there: a
  // uthread stack must not, or two parkers could each wait for the other.
  worker->handoff = next;
  SwitchToScheduler(worker, self, SwitchAction::kPark);
  PreemptDepthDec(depth);
}

void Runtime::Unpark(UThread* thread) {
  SKYLOFT_CHECK(thread != nullptr) << "Unpark of a null uthread";
  Runtime* rt = g_runtime;
  SKYLOFT_CHECK(rt != nullptr);
  const int old = thread->park.exchange(UThread::kParkUnparkPending, std::memory_order_acq_rel);
  if (old == UThread::kParkParked) {
    // Parked: we own the wakeup.
    thread->park.store(UThread::kParkRunning, std::memory_order_release);
    PreemptGuard guard;
    rt->Schedule(thread, kEnqueueWakeup);
  }
  // old == kParkRunning or kParkUnparkPending: the uthread's next Park
  // consumes the pending token and returns without switching.
}

// The join word (UThread::joiners) is a lock-free stack that ExitCurrent
// closes with kExited. Join links itself once, then parks until the exiting
// target releases it by storing kExited into its join_next. It waits on its
// own link, not on the target's word: the exiter reads a joiner's join_next
// after it closes the word, and a joiner that left on seeing the word closed
// could already be linked into another target's stack by then.
void Runtime::Join(UThread* thread) {
  // `self` is read once, before the first switch: Current() goes through
  // tl_worker, which must not be touched after a Park that may migrate us.
  UThread* self = Current();
  UThread* head = thread->joiners.load(std::memory_order_acquire);
  do {
    if (head == UThread::kExited) {
      return;
    }
    self->join_next.store(head, std::memory_order_relaxed);
  } while (!thread->joiners.compare_exchange_weak(head, self, std::memory_order_release,
                                                  std::memory_order_acquire));
  // Park may return spuriously (e.g. a stale unpark token left by the mutex
  // fast-path race), so the release is re-checked on every wake.
  while (self->join_next.load(std::memory_order_acquire) != UThread::kExited) {
    Park();
  }
}

// skylint:allow(preempt-balance) -- the uthread never returns, so nothing lowers its depth
SKYLOFT_SWITCH_ENTRY void Runtime::ExitCurrent() {
  RuntimeWorker* worker = tl_worker;
  UThread* self = worker->current;
  PreemptDepthInc(self->preempt_count);
  UThread* joiner = self->joiners.exchange(UThread::kExited, std::memory_order_acq_rel);
  while (joiner != nullptr) {
    // Read the link before the release: a released joiner may return and
    // join again, relinking itself.
    UThread* next = joiner->join_next.load(std::memory_order_relaxed);
    joiner->join_next.store(UThread::kExited, std::memory_order_release);
    Unpark(joiner);
    joiner = next;
  }
  SwitchToScheduler(worker, self, SwitchAction::kExit);
  SKYLOFT_CHECK(false) << "resumed an exited uthread";
}

// skylint:allow(preempt-balance) -- RAII: the destructor makes the matching decrement
SKYLOFT_SWITCH_ENTRY Runtime::PreemptGuard::PreemptGuard() {
  RuntimeWorker* worker = tl_worker;
  if (worker != nullptr && worker->current != nullptr) {
    counter_ = &worker->current->preempt_count;
    PreemptDepthInc(*counter_);
  }
  // Off-runtime threads and a worker's scheduler stack without a current
  // uthread never take a preemption; neither needs the guard.
}

// skylint:allow(preempt-balance) -- RAII: matches the constructor's increment
Runtime::PreemptGuard::~PreemptGuard() {
  if (counter_ != nullptr) {
    PreemptDepthDec(*counter_);
  }
}

void Runtime::DeferTick(RuntimeWorker* worker, UThread* current) {
  preempt_deferrals_->Inc();
  if (tracer_ != nullptr) {
    tracer_->RecordEvent(HostNowNs(), TraceEventType::kDeferred, worker->index,
                         current != nullptr ? current->id : 0, 0);
  }
}

bool Runtime::DefersPreemptionAt(std::uintptr_t pc) {
  return !PreemptSafePc(pc) || InSwitchEntry(pc);
}

SKYLOFT_SWITCH_ENTRY void Runtime::PreemptSignalHandler(int /*signo*/, siginfo_t* /*info*/,
                                                       void* uctx) {
  RuntimeWorker* worker = tl_worker;
  if (worker == nullptr || worker->runtime == nullptr) {
    return;
  }
  // Every tick this worker declines to act on is counted and traced as
  // deferred, so kSignal + kDeferred accounts for every tick delivered here.
  // Declined first: no uthread is running, or its preempt depth is raised —
  // it holds a PreemptGuard (possibly taken on another worker), or it is
  // switching in or out, which covers every tick on the scheduler stack.
  UThread* current = worker->current;
  if (current == nullptr || current->preempt_count.load(std::memory_order_acquire) != 0) {
    worker->runtime->DeferTick(worker, current);
    return;
  }
  // Only switch if we interrupted code running on the uthread's own stack;
  // anything else means we're in a transition window.
  char probe;
  const auto sp = reinterpret_cast<std::uintptr_t>(&probe);
  const auto lo = reinterpret_cast<std::uintptr_t>(current->stack.get());
  const auto hi = lo + worker->runtime->options_.stack_size;
  if (sp < lo || sp >= hi) {
    worker->runtime->DeferTick(worker, current);
    return;
  }
  // Safe-point check (see TextRange above): defer rather than preempt inside
  // libc/ld/libstdc++, where per-pthread state (malloc tcache, stdio locks,
  // the loader lock) may be mid-update, or inside the switch primitive or a
  // switch-out entry point (see InSwitchEntry). The next timer period
  // retries.
#if defined(__x86_64__)
  const auto* uc = static_cast<const ucontext_t*>(uctx);
  const auto pc = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  if (DefersPreemptionAt(pc)) {
    worker->runtime->DeferTick(worker, current);
    return;
  }
#else
  (void)uctx;
#endif
  // Enter the scheduler; the policy's sched_timer_tick makes the call.
  // errno is saved on the uthread's stack: while it is switched out, other
  // uthreads (and the scheduler) run on this pthread and clobber the
  // thread-local errno, so it must be restored when the uthread resumes —
  // into the errno of whichever pthread it resumed on, hence the re-derived
  // location (see CurrentErrnoLocation).
  // Trace the accepted signal delivery before entering the scheduler. Both
  // RecordEvent and HostNowNs are allocation-free and signal-safe.
  if (worker->runtime->tracer_ != nullptr) {
    worker->runtime->tracer_->RecordEvent(HostNowNs(), TraceEventType::kSignal, worker->index,
                                          current->id, 0);
  }
  const int saved_errno = *CurrentErrnoLocation();
  PreemptTick();
  *CurrentErrnoLocation() = saved_errno;
}

}  // namespace skyloft
