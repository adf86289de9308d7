#include "src/runtime/sync.h"

#include "src/base/compiler.h"
#include "src/base/logging.h"
#include "src/runtime/io_engine.h"

namespace skyloft {

namespace {

// Shared wait loop for both directions. `consume` is the latch bit this wait
// consumes (kIoReadable/kIoWritable); hup/error terminate either direction
// and stay latched.
SKYLOFT_MAY_SWITCH unsigned WaitForIo(IoHandle* handle, unsigned consume,
                                      std::atomic<UThread*>* waiter_slot) {
  const unsigned wake_mask = consume | kIoHup | kIoError;
  while (true) {
    unsigned ready = handle->ready.load(std::memory_order_acquire);
    if (ready & wake_mask) {
      handle->ready.fetch_and(~consume, std::memory_order_acq_rel);
      return ready;
    }
    // Publish ourselves, then re-check: the engine's DeliverReady latches ready
    // BEFORE exchanging the waiter slot, so either we see the latch here or
    // the engine sees us and unparks. A double-win (both happen) costs one
    // stale unpark token, which every Park loop tolerates.
    waiter_slot->store(Runtime::Current(), std::memory_order_release);
    // Full fence so the re-check below cannot be hoisted above the waiter
    // publish (StoreLoad reordering is legal even on x86, and would let both
    // sides miss each other). The engine side needs no fence: its fetch_or
    // and exchange are RMWs, which always observe the latest slot value.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    ready = handle->ready.load(std::memory_order_acquire);
    if (ready & wake_mask) {
      waiter_slot->store(nullptr, std::memory_order_release);
      handle->ready.fetch_and(~consume, std::memory_order_acq_rel);
      return ready;
    }
    Runtime::Park();
  }
}

}  // namespace

unsigned WaitForReadable(IoHandle* handle) {
  return WaitForIo(handle, kIoReadable, &handle->reader);
}

unsigned WaitForWritable(IoHandle* handle) {
  return WaitForIo(handle, kIoWritable, &handle->writer);
}

void UthreadMutex::SpinAcquire() {
  SpinBackoff backoff;
  while (wait_spin_.test_and_set(std::memory_order_acquire)) {
    backoff.Pause();
  }
}

void UthreadMutex::SpinRelease() { wait_spin_.clear(std::memory_order_release); }

bool UthreadMutex::TryLock() {
  bool expected = false;
  return locked_.compare_exchange_strong(expected, true, std::memory_order_seq_cst);
}

void UthreadMutex::Lock() {
  if (TryLock()) {
    return;
  }
  Runtime::PreemptGuard guard;
  Waiter waiter;
  waiter.thread = Runtime::Current();
  while (true) {
    SpinAcquire();
    if (TryLock()) {
      SpinRelease();
      return;
    }
    waiters_.PushBack(&waiter);
    waiter_count_.fetch_add(1, std::memory_order_seq_cst);
    SpinRelease();
    // Recheck after publishing the waiter: an Unlock may have raced between
    // our failed TryLock and the publish, and seen zero waiters.
    if (TryLock()) {
      SpinAcquire();
      if (waiter.IsLinked()) {
        waiters_.Remove(&waiter);
        waiter_count_.fetch_sub(1, std::memory_order_release);
      }
      SpinRelease();
      // If we were already popped, a stale unpark token is pending; every
      // Park() caller loops on its own predicate, so it is harmless.
      return;
    }
    // Park until an Unlock pops the waiter. A stale token returns early with
    // it still linked: then take the lock if it is free (unlinking first) or
    // park again — pushing a linked node a second time would corrupt the list.
    bool linked = true;
    while (linked) {
      Runtime::Park();
      SpinAcquire();
      linked = waiter.IsLinked();
      if (linked && TryLock()) {
        waiters_.Remove(&waiter);
        waiter_count_.fetch_sub(1, std::memory_order_release);
        SpinRelease();
        return;
      }
      SpinRelease();
    }
    // Popped by an Unlock handoff attempt: loop and race for the lock.
  }
}

void UthreadMutex::Unlock() {
  // seq_cst on both sides (here and Lock's count-publish / TryLock
  // recheck): with release/acquire the store may still sit in the store
  // buffer when the count is read as 0, while the locker's recheck still
  // sees the lock held — and it parks with no Unlock left to wake it.
  locked_.store(false, std::memory_order_seq_cst);
  if (waiter_count_.load(std::memory_order_seq_cst) == 0) {
    return;  // uncontended fast path: one store + one load
  }
  Runtime::PreemptGuard guard;
  SpinAcquire();
  Waiter* next = waiters_.PopFront();
  // Read under the spin: once unlinked, the waiter's frame may be gone as
  // soon as we release it.
  UThread* thread = nullptr;
  if (next != nullptr) {
    waiter_count_.fetch_sub(1, std::memory_order_release);
    thread = next->thread;
  }
  SpinRelease();
  if (thread != nullptr) {
    Runtime::Unpark(thread);
  }
}

void UthreadCondVar::SpinAcquire() {
  SpinBackoff backoff;
  while (wait_spin_.test_and_set(std::memory_order_acquire)) {
    backoff.Pause();
  }
}

void UthreadCondVar::SpinRelease() { wait_spin_.clear(std::memory_order_release); }

void UthreadCondVar::Wait(UthreadMutex* mutex) {
  Runtime::PreemptGuard guard;
  Waiter waiter;
  waiter.thread = Runtime::Current();
  SpinAcquire();
  waiters_.PushBack(&waiter);
  SpinRelease();
  mutex->Unlock();
  // Park until a Signal/Broadcast unlinks the waiter. A stale unpark token
  // makes Park return early; returning then would leave this frame's waiter
  // linked for a later Signal to touch after the frame is gone.
  bool linked = true;
  while (linked) {
    Runtime::Park();
    SpinAcquire();
    linked = waiter.IsLinked();
    SpinRelease();
  }
  mutex->Lock();
}

UThread* UthreadCondVar::PopWaiter() {
  SpinAcquire();
  Waiter* waiter = waiters_.PopFront();
  // Read under the spin: once unlinked, the waiter's frame may be gone as
  // soon as we release it.
  UThread* thread = waiter != nullptr ? waiter->thread : nullptr;
  SpinRelease();
  return thread;
}

void UthreadCondVar::Signal() {
  Runtime::PreemptGuard guard;
  UThread* thread = PopWaiter();
  if (thread != nullptr) {
    Runtime::Unpark(thread);
  }
}

void UthreadCondVar::Broadcast() {
  Runtime::PreemptGuard guard;
  while (UThread* thread = PopWaiter()) {
    Runtime::Unpark(thread);
  }
}

}  // namespace skyloft
