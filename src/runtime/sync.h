// Synchronization primitives for the host runtime, analogous to Skyloft's
// POSIX-compatible threading APIs (§2.4): a blocking mutex and a condition
// variable built on Park/Unpark. Table 7 measures their uncontended and
// signal-path costs against pthreads.
#ifndef SRC_RUNTIME_SYNC_H_
#define SRC_RUNTIME_SYNC_H_

#include <atomic>
#include <cstdint>

#include "src/base/intrusive_list.h"
#include "src/runtime/uthread.h"

namespace skyloft {

struct IoHandle;

// ---- I/O waits (DESIGN.md section 10) ----
//
// Blocks the current uthread until the handle's engine latches the matching
// readiness (or a sticky kIoHup/kIoError), then consumes the readable/
// writable latch and returns the observed IoReady mask. Edge-triggered
// contract: after WaitForReadable returns, the caller must read until EAGAIN
// before waiting again (symmetrically for writes) — the kernel only re-arms
// the edge once the socket has been drained/filled. kIoHup/kIoError bits are
// left latched so teardown paths keep observing them.
//
// Both primitives may return spuriously under racing wakeups (like every
// Park-based wait in this runtime); callers sit in read/write loops that
// tolerate an extra EAGAIN round.
SKYLOFT_MAY_SWITCH unsigned WaitForReadable(IoHandle* handle);
SKYLOFT_MAY_SWITCH unsigned WaitForWritable(IoHandle* handle);

// A queued blocking mutex: fast path is one CAS; contended acquirers park
// and are woken FIFO by the releasing thread.
class UthreadMutex {
 public:
  UthreadMutex() = default;
  UthreadMutex(const UthreadMutex&) = delete;
  UthreadMutex& operator=(const UthreadMutex&) = delete;

  SKYLOFT_MAY_SWITCH SKYLOFT_ACQUIRES(uthread_mutex) void Lock();
  // TryLock is deliberately not SKYLOFT_ACQUIRES: a conditional acquire has
  // no unconditional post-state skylint's linear lock walk could model.
  SKYLOFT_NO_SWITCH bool TryLock();
  SKYLOFT_NO_SWITCH SKYLOFT_RELEASES(uthread_mutex) void Unlock();

 private:
  struct Waiter : ListNode {
    UThread* thread = nullptr;
  };

  std::atomic<bool> locked_{false};
  // Fast-path gate: Unlock skips the waiter list entirely when zero.
  std::atomic<int> waiter_count_{0};
  // Short spinlock guarding the waiter list; never held across a park
  // (lock class `wait_spin`, shared with UthreadCondVar — same role, and
  // rule lock-held-across-switch enforces the never-parked invariant).
  std::atomic_flag wait_spin_ = ATOMIC_FLAG_INIT;
  IntrusiveList<Waiter> waiters_;

  SKYLOFT_NO_SWITCH SKYLOFT_ACQUIRES(wait_spin) void SpinAcquire();
  SKYLOFT_NO_SWITCH SKYLOFT_RELEASES(wait_spin) void SpinRelease();
};

class UthreadCondVar {
 public:
  UthreadCondVar() = default;
  UthreadCondVar(const UthreadCondVar&) = delete;
  UthreadCondVar& operator=(const UthreadCondVar&) = delete;

  // Atomically releases `mutex` and blocks; reacquires before returning.
  // SKYLOFT_REQUIRES makes the contract checkable both ways: callers must
  // hold the mutex (rule lock-requires-unheld), and holding it across this
  // call is exempt from lock-held-across-switch — Wait itself releases it
  // before parking.
  SKYLOFT_MAY_SWITCH SKYLOFT_REQUIRES(uthread_mutex) void Wait(UthreadMutex* mutex);

  // Wakes one / all waiters.
  SKYLOFT_NO_SWITCH void Signal();
  SKYLOFT_NO_SWITCH void Broadcast();

 private:
  struct Waiter : ListNode {
    UThread* thread = nullptr;
  };

  std::atomic_flag wait_spin_ = ATOMIC_FLAG_INIT;
  IntrusiveList<Waiter> waiters_;

  SKYLOFT_NO_SWITCH SKYLOFT_ACQUIRES(wait_spin) void SpinAcquire();
  SKYLOFT_NO_SWITCH SKYLOFT_RELEASES(wait_spin) void SpinRelease();
  // Unlinks the oldest waiter; returns its uthread, or null if none waits.
  SKYLOFT_NO_SWITCH UThread* PopWaiter();
};

// RAII lock guard. The SKYLOFT_ACQUIRES on the constructor lets skylint
// treat `UthreadMutexGuard g(&mu);` declarations as scope-bound acquires,
// like std::lock_guard.
class UthreadMutexGuard {
 public:
  SKYLOFT_ACQUIRES(uthread_mutex) explicit UthreadMutexGuard(UthreadMutex* mutex)
      : mutex_(mutex) {
    mutex_->Lock();
  }
  SKYLOFT_RELEASES(uthread_mutex) ~UthreadMutexGuard() { mutex_->Unlock(); }
  UthreadMutexGuard(const UthreadMutexGuard&) = delete;
  UthreadMutexGuard& operator=(const UthreadMutexGuard&) = delete;

 private:
  UthreadMutex* mutex_;
};

}  // namespace skyloft

#endif  // SRC_RUNTIME_SYNC_H_
