// Per-worker I/O engine cores for the host runtime (DESIGN.md section 10).
//
// Skyloft's latency argument needs a real wakeup path: a NIC-driven readiness
// event must turn into a runnable uthread in microseconds. Each runtime
// worker owns one IoEngine polled from the worker's scheduler loop between
// uthread switches. Connections are sharded at accept time (SO_REUSEPORT
// listeners, one per worker) and an fd never changes engines; only the
// *handler uthread* migrates, via ordinary work stealing. An event therefore
// always fires on the fd's home engine, and the resulting Unpark enqueues
// through that worker's own runqueue — the remote-enqueue mailbox path when
// the handler was stolen.
//
// Each engine owns a private epoll set holding every registered fd. A
// kReadiness handle (pipes, anything the caller read()s itself) gets only
// the readiness latch. kStream/kListener/kDatagram handles are served by the
// completion-shaped API — PopRecv, PopDatagram, TakeAccepted, SendEnqueue,
// SendDatagram — which makes the syscall in the caller's context (read or
// recvfrom into a per-handle buffer, accept4, sendto), and SendEnqueue
// writes the queue inline with one sendmsg, leaving whatever the socket
// refused for the home engine's EPOLLOUT continuation. An application writes
// one loop per socket kind. The engine counts every data-path syscall it
// makes (IoEngineStats::sys_*).
//
// Blocking is cooperative, not thread-blocking: a uthread that would block
// parks through WaitForReadable/WaitForWritable (src/runtime/sync.h) and the
// worker runs other uthreads until the engine latches readiness and unparks
// it. Readiness is edge-triggered and latched in the handle:
//
//   engine Poll():  ready.fetch_or(bits); wake parked reader/writer
//   WaitForReadable: wait for the latch, consume it, caller then drains the
//                    socket until EAGAIN (edge-triggered contract)
//
// Completion-mode handles reuse the same latch: kIoReadable means "data (or
// fds) to pop", kIoWritable means "send queue drained".
//
// Handle lifetime: Deregister unlinks the fd, closes it, and retires the
// handle onto the engine's retire list, freed at the top of a later Poll,
// after any in-flight epoll batch that might still reference it has been
// processed (events on a closed handle are skipped via the `closed` flag).
// This lets a handler uthread close its connection from whatever worker it
// was stolen to while the home engine is mid-poll.
#ifndef SRC_RUNTIME_IO_ENGINE_H_
#define SRC_RUNTIME_IO_ENGINE_H_

#include <netinet/in.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/base/compiler.h"
#include "src/base/metrics.h"

namespace skyloft {

struct UThread;
class IoEngine;
struct IoCompletionState;

// Readiness bits latched in IoHandle::ready. kIoHup/kIoError are sticky:
// once the peer is gone the condition never clears, so waits return
// immediately and the handler can tear the connection down.
enum IoReady : unsigned {
  kIoReadable = 1u << 0,
  kIoWritable = 1u << 1,
  kIoHup = 1u << 2,
  kIoError = 1u << 3,
};

// What a Register()ed fd is, which selects the data-path calls that serve
// it. kReadiness is the plain epoll contract; the other modes are served by
// the completion-shaped API.
enum class IoRegisterMode {
  kReadiness,  // readiness only; caller does its own read/write/accept
  kStream,     // connected TCP: PopRecv + SendEnqueue
  kListener,   // listening TCP: TakeAccepted
  kDatagram,   // UDP: PopDatagram + SendDatagram
};

// One received segment of a kStream handle. `data/len` point into the
// handle's read buffer and stay valid until the next pop on the handle.
struct IoRecvSlice {
  const char* data = nullptr;
  std::uint32_t len = 0;
};

// One received datagram of a kDatagram handle: the sender and a payload view
// with the same lifetime as IoRecvSlice. A datagram that did not fit the
// receive buffer pops with its payload cut short, so the caller's frame
// decode rejects it.
struct IoDatagram {
  sockaddr_in peer{};
  const char* data = nullptr;
  std::uint32_t len = 0;
};

// One registered fd. Created by IoEngine::Register, destroyed by the engine
// after Deregister. At most one waiting reader and one waiting writer at a
// time (the KV server's one-uthread-per-connection model; a second concurrent
// waiter on the same direction is a caller bug).
struct alignas(kCacheLineSize) IoHandle {
  int fd = -1;
  IoEngine* engine = nullptr;
  IoRegisterMode mode = IoRegisterMode::kReadiness;
  std::atomic<unsigned> ready{0};
  std::atomic<UThread*> reader{nullptr};
  std::atomic<UThread*> writer{nullptr};
  std::atomic<bool> closed{false};
  IoHandle* retire_next = nullptr;  // engine retire list linkage
  // Completion-mode state (send queue, read buffer); null for kReadiness
  // handles. Owned by the engine, freed with the handle.
  IoCompletionState* cs = nullptr;
};

// Counter lanes shared by every engine of one Runtime; `worker` indexes the
// lane, so per-engine accounting never bounces a cache line. All pointers are
// owned by the Runtime's MetricGroup (null in standalone/unit contexts).
struct IoEngineStats {
  ShardedCounter* polls = nullptr;         // Poll() calls that found events
  ShardedCounter* events = nullptr;        // readiness events dispatched
  ShardedCounter* wakeups = nullptr;       // parked uthreads unparked
  ShardedCounter* registered = nullptr;    // fds registered (lifetime total)
  ShardedCounter* retired = nullptr;       // fds deregistered
  // Data-path syscall accounting, the bench's syscalls/request numerator:
  // every read/recvfrom, sendmsg/sendto and accept4 the completion-shaped
  // API makes.
  ShardedCounter* sys_read = nullptr;      // read/recvfrom on the data path
  ShardedCounter* sys_write = nullptr;     // sendmsg/sendto on the data path
  ShardedCounter* sys_accept = nullptr;    // accept4 on the data path
};

class IoEngine {
 public:
  // `worker` is the owning runtime worker's index (its stats lane).
  IoEngine(int worker, const IoEngineStats& stats);
  ~IoEngine();

  IoEngine(const IoEngine&) = delete;
  IoEngine& operator=(const IoEngine&) = delete;

  // Registers `fd` with this engine: sets O_NONBLOCK and adds it to the epoll
  // set with edge-triggered read/write/hup monitoring. Callable from any
  // worker (registration is spinlocked); returns null if the kernel rejects
  // the fd.
  SKYLOFT_NO_SWITCH IoHandle* Register(int fd, IoRegisterMode mode = IoRegisterMode::kReadiness);

  // Unlinks the fd, closes it, and retires the handle (freed by a later
  // Poll on the home engine). Callable from any worker; the caller must not
  // touch the handle afterwards.
  SKYLOFT_NO_SWITCH void Deregister(IoHandle* handle);

  // Frees retired handles, drains a bounded batch of epoll events, latches
  // them into handles, and unparks waiters. Returns the number of events
  // dispatched. Must only be called from the owning worker's scheduler loop
  // (single consumer).
  SKYLOFT_NO_SWITCH int Poll();

  // Re-latches readability on a handle — used by batched accept loops that
  // stop before EAGAIN (the consumed edge must be restored or the remaining
  // backlog would wait for the next connection attempt).
  SKYLOFT_NO_SWITCH static void RelatchReadable(IoHandle* handle);

  // Latches kIoError and unparks any waiters without touching the kernel
  // set — the shutdown path: a server's Stop() interrupts uthreads blocked
  // in WaitFor* so they can observe their stop flag and exit. Callable from
  // any thread.
  SKYLOFT_NO_SWITCH static void Interrupt(IoHandle* handle);

  // ---- Completion-shaped data path (kStream/kListener/kDatagram) ----
  //
  // All of these are callable from any worker: the handler uthread migrates
  // via work stealing while the fd's events keep landing on the home engine.
  // Each makes its syscall in the caller's context and counts it.

  // Pops the next received segment of a kStream handle. Returns false when
  // nothing is left (wait for kIoReadable and retry): that is the read()
  // that hit EAGAIN, so popping until false drains the socket as the
  // edge-triggered contract requires. End of stream latches kIoHup and a
  // receive error kIoError.
  SKYLOFT_NO_SWITCH bool PopRecv(IoHandle* handle, IoRecvSlice* slice);

  // Pops the next datagram of a kDatagram handle; false when none is left.
  SKYLOFT_NO_SWITCH bool PopDatagram(IoHandle* handle, IoDatagram* datagram);

  // Pops the next accepted connection fd of a kListener handle; -1 when none
  // is left (wait for kIoReadable and retry).
  SKYLOFT_NO_SWITCH int TakeAccepted(IoHandle* handle);

  // Queues `frame` on a kStream handle's send queue and, if no send is
  // pending, writes the queue inline, leaving what the socket refused to the
  // home engine's EPOLLOUT continuation. Up to 16 queued frames leave per
  // sendmsg. Returns the bytes queued by this call (earlier unsent bytes
  // included, before any inline write), or 0 if the handle is closed/errored
  // and the frame was dropped. Single writer per handle (the
  // one-uthread-per-connection contract). Backpressure: callers above a
  // high-water mark of SendQueuedBytes should WaitForWritable, which returns
  // once the queue drains.
  SKYLOFT_NO_SWITCH std::size_t SendEnqueue(IoHandle* handle, std::string frame);
  SKYLOFT_NO_SWITCH std::size_t SendQueuedBytes(IoHandle* handle);

  // Fire-and-forget datagram reply on a kDatagram handle (one sendto).
  // Returns false if the frame was dropped (closed handle, full socket
  // buffer) — UDP semantics.
  SKYLOFT_NO_SWITCH bool SendDatagram(IoHandle* handle, const sockaddr_in& to, std::string frame);

  // Always false: epoll is the only backend. perfbench's meta line is the
  // only reader of these two; they go when it stops reading them.
  bool using_io_uring() const { return false; }
  bool completion() const { return false; }

 private:
  SKYLOFT_NO_SWITCH void DeliverReady(IoHandle* handle, unsigned bits);
  SKYLOFT_NO_SWITCH void FreeRetired();
  SKYLOFT_NO_SWITCH void TrackHandle(IoHandle* handle);
  SKYLOFT_NO_SWITCH void UntrackHandle(IoHandle* handle);

  // Live-handle table spinlock (lock class `io_handles`): annotated so
  // skylint tracks hold windows across the registration/teardown paths.
  SKYLOFT_NO_SWITCH SKYLOFT_ACQUIRES(io_handles) void LockHandles();
  SKYLOFT_NO_SWITCH SKYLOFT_RELEASES(io_handles) void UnlockHandles();

  // Per-handle send-queue spinlock (lock class `io_handle_q`); guards the
  // send queue shared between the home engine's EPOLLOUT continuation and
  // the (possibly stolen) handler uthread.
  SKYLOFT_NO_SWITCH SKYLOFT_ACQUIRES(io_handle_q) static void QLock(IoCompletionState* cs);
  SKYLOFT_NO_SWITCH SKYLOFT_RELEASES(io_handle_q) static void QUnlock(IoCompletionState* cs);

  // Writes the queue until it drains or the socket refuses more; returns the
  // bits to latch: kIoWritable (drained), kIoError (dropped) or 0 (the rest
  // waits for the next EPOLLOUT edge).
  SKYLOFT_NO_SWITCH SKYLOFT_REQUIRES(io_handle_q) unsigned SendLocked(IoHandle* handle);
  // Poll's EPOLLOUT continuation of a kStream handle's send queue.
  SKYLOFT_NO_SWITCH unsigned ContinueSend(IoHandle* handle);

  int worker_;
  IoEngineStats stats_;

  int epoll_fd_ = -1;
  std::vector<unsigned char> event_buf_;  // epoll_event array storage

  // Live-handle table for teardown; spinlocked (registration is off the hot
  // path — Poll never takes it).
  std::atomic_flag handles_spin_ = ATOMIC_FLAG_INIT;
  std::vector<IoHandle*> handles_;

  // Retired handles awaiting a safe free point (MPSC: any worker pushes,
  // the home engine's Poll frees).
  std::atomic<IoHandle*> retired_head_{nullptr};
  // Handles that survived one Poll on the retire list and are freed at the
  // next: by then no event batch fetched before their epoll_ctl(DEL) can
  // still be in flight.
  std::vector<IoHandle*> retire_graveyard_;
};

}  // namespace skyloft

#endif  // SRC_RUNTIME_IO_ENGINE_H_
