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
// One backend per mechanism, one data-path API. READINESS is epoll's job on
// every build: each engine owns a private epoll set, and every kReadiness
// handle (pipes, anything the caller read()s itself) lives there. The
// COMPLETION-shaped API — PopRecv/PopDatagram/RecycleBuffer, TakeAccepted,
// SendEnqueue, SendDatagram — serves kStream/kListener/kDatagram handles on
// every engine, so an application writes one loop per socket kind and never
// learns which backend is armed:
//   - io_uring (SKYLOFT_IO_URING builds whose kernel passes the ring's
//     feature probe): each handle keeps a multishot RECV/RECVMSG/ACCEPT
//     armed whose completions carry the data itself — payload bytes land in
//     engine-owned provided buffers (IORING_REGISTER_PBUF_RING), accepted
//     fds and datagrams in per-handle queues — and responses go out as
//     engine-owned async SEND/SENDMSG submissions with short-send
//     continuation. All SQEs are batched, one io_uring_enter per worker poll
//     round, so a worker's steady state is ~0 syscalls per request. The ring
//     also keeps one multishot POLL_ADD armed on the epoll fd, so a single
//     CQE scan covers both mechanisms.
//   - epoll (every other engine, including an io_uring build whose ring
//     setup or probe failed): the same calls make the syscall in the
//     caller's context — read/recvfrom into a per-handle buffer, accept4,
//     sendto — and SendEnqueue writes the queue inline with one sendmsg,
//     leaving whatever the socket refused for the home engine's EPOLLOUT
//     continuation.
// The engine counts every data-path syscall it makes (IoEngineStats::sys_*).
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
// handle. A handle in the epoll set goes on the engine's retire list, freed
// at the top of a later Poll, after any in-flight epoll batch that might
// still reference it has been processed (events on a closed handle are
// skipped via the `closed` flag). This lets a handler uthread close its
// connection from whatever worker it was stolen to while the home engine is
// mid-poll. A handle whose ops the ring owns is completion-counted instead:
// every armed op (recv, accept, send, cancel) owes one terminal CQE, and the
// free point is the expected-CQE count reaching zero after close.
#ifndef SRC_RUNTIME_IO_ENGINE_H_
#define SRC_RUNTIME_IO_ENGINE_H_

#include <netinet/in.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
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
// it. kReadiness is the epoll contract (pipes, anything the caller read()s
// itself); the other modes are served by the completion-shaped API on every
// engine (multishot ops on an io_uring engine, caller-context syscalls on
// epoll).
enum class IoRegisterMode {
  kReadiness,  // readiness only; caller does its own read/write/accept
  kStream,     // connected TCP: PopRecv + SendEnqueue
  kListener,   // listening TCP: TakeAccepted
  kDatagram,   // UDP: PopDatagram + SendDatagram
};

// One received segment of a kStream handle. `data/len` stay valid until the
// consumer returns the buffer with IoEngine::RecycleBuffer(buf_id), and on
// an epoll engine (where they point into the handle's read buffer) only
// until the next pop on the handle. Consumers may be on any worker (a stolen
// handler); recycling is thread-safe.
struct IoRecvSlice {
  const char* data = nullptr;
  std::uint32_t len = 0;
  std::uint16_t buf_id = 0;
};

// One received datagram of a kDatagram handle: the sender and a payload view
// with the same lifetime rules as IoRecvSlice. A datagram that did not fit
// the receive buffer pops with its payload cut short (io_uring: len 0), so
// the caller's frame decode rejects it.
struct IoDatagram {
  sockaddr_in peer{};
  const char* data = nullptr;
  std::uint32_t len = 0;
  std::uint16_t buf_id = 0;
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
  // Handles whose ops the io_uring ring owns. Whether the multishot main op
  // (RECV, RECVMSG or ACCEPT depending on mode) is in flight, so Deregister
  // knows to cancel it; and a count of references: terminal CQEs still
  // expected (+1 per armed op, +1 per submitted cancel), +1 while parked on
  // the engine's buffer-exhaustion stall list, and +1 held by the
  // registration until Deregister. The kernel does NOT order a cancelled op's CQE before its
  // cancel's CQE (task-work can post it later), so the free point is the
  // count reaching zero, not any particular completion.
  std::atomic<bool> main_op_armed{false};
  std::atomic<int> pending_cqes{0};
  IoHandle* retire_next = nullptr;  // engine retire list linkage (epoll set)
  // Completion-mode state (send queue; the ring's recv/accept queues or the
  // epoll read buffer); null for kReadiness handles. Owned by the engine,
  // freed with the handle.
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
  ShardedCounter* uring_fallbacks = nullptr;  // io_uring build serving on epoll
  // Data-path syscall accounting, the bench's syscalls/request numerator:
  // every io_uring_enter and every read/recvfrom, sendmsg/sendto and accept4
  // the completion-shaped API makes on an epoll engine.
  ShardedCounter* sys_enter = nullptr;     // io_uring_enter calls
  ShardedCounter* sys_read = nullptr;      // read/recvfrom on the data path
  ShardedCounter* sys_write = nullptr;     // sendmsg/sendto on the data path
  ShardedCounter* sys_accept = nullptr;    // accept4 on the data path
  // Completion data-path traffic.
  ShardedCounter* recv_segments = nullptr;    // provided-buffer segments queued
  ShardedCounter* send_ops = nullptr;         // async send submissions armed
  ShardedCounter* completion_accepts = nullptr;  // fds from multishot accept
  ShardedCounter* buf_exhaustions = nullptr;  // recv stalled on empty buf ring
};

// Provided-buffer ring sizing for the completion data path (ignored by
// engines without io_uring). Every other engine size is a constant in
// io_engine.cpp.
struct IoEngineOptions {
  int buf_ring_entries = 1024;  // provided buffers per engine (rounded to pow2)
  int buf_size = 2048;          // bytes per provided buffer
};

class IoEngine {
 public:
  // `worker` is the owning runtime worker's index (stats lane + diagnostics).
  IoEngine(int worker, const IoEngineOptions& options, const IoEngineStats& stats);
  ~IoEngine();

  IoEngine(const IoEngine&) = delete;
  IoEngine& operator=(const IoEngine&) = delete;

  // Registers `fd` with this engine: sets O_NONBLOCK and adds it to the epoll
  // set with edge-triggered read/write/hup monitoring — or, for completion
  // modes on an io_uring engine, arms the mode's multishot op. Callable from
  // any worker (registration is spinlocked); returns null if the kernel
  // rejects the fd.
  SKYLOFT_NO_SWITCH IoHandle* Register(int fd, IoRegisterMode mode = IoRegisterMode::kReadiness);

  // Unlinks the fd, closes it, and retires the handle (freed by a later
  // Poll on the home engine). Callable from any worker; the caller must not
  // touch the handle afterwards.
  SKYLOFT_NO_SWITCH void Deregister(IoHandle* handle);

  // Frees retired handles, drains a bounded batch of epoll events and
  // completions, latches them into handles, and unparks waiters. Returns the
  // number of events dispatched. Must only be called from the owning
  // worker's scheduler loop (single consumer).
  SKYLOFT_NO_SWITCH int Poll();

  // Pushes any deferred submission-queue entries to the kernel now (io_uring
  // backend; no-op on epoll). Poll() batches submissions across scheduler
  // rounds; the worker loop calls this right before idling so a lone queued
  // send is never held hostage to the batching heuristic while the worker
  // sleeps. Home-worker only, like Poll().
  SKYLOFT_NO_SWITCH void FlushSubmissions();

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
  // Served by every engine. All of these are callable from any worker: the
  // handler uthread migrates via work stealing while the fd's events keep
  // landing on the home engine. On an io_uring engine the home engine fills
  // per-handle queues that these drain; on epoll they make the syscall in
  // the caller's context and count it.

  // Pops the next received segment of a kStream handle. Returns false when
  // nothing is left (wait for kIoReadable and retry); on epoll that is the
  // read() that hit EAGAIN, so popping until false drains the socket as the
  // edge-triggered contract requires. End of stream latches kIoHup and a
  // receive error kIoError. The caller owns the slice until
  // RecycleBuffer(slice.buf_id).
  SKYLOFT_NO_SWITCH bool PopRecv(IoHandle* handle, IoRecvSlice* slice);

  // Pops the next datagram of a kDatagram handle; false when none is left.
  // The caller owns it until RecycleBuffer(datagram.buf_id).
  SKYLOFT_NO_SWITCH bool PopDatagram(IoHandle* handle, IoDatagram* datagram);

  // Returns a popped buffer to the handle's HOME engine (io_uring: its
  // provided-buffer ring; epoll: nothing to return). Must be called exactly
  // once per popped slice or datagram.
  SKYLOFT_NO_SWITCH void RecycleBuffer(std::uint16_t buf_id);

  // Pops the next accepted connection fd of a kListener handle; -1 when none
  // is left (wait for kIoReadable and retry).
  SKYLOFT_NO_SWITCH int TakeAccepted(IoHandle* handle);

  // Queues `frame` on a kStream handle's send queue and starts sending it if
  // no send is pending: io_uring arms an async send whose short completions
  // re-arm from the CQE until drained; epoll writes the queue inline and
  // leaves what the socket refused to the home engine's EPOLLOUT
  // continuation. Up to 16 queued frames leave per send. Returns the bytes
  // queued by this call (earlier unsent bytes included, before any inline
  // write), or 0 if the handle is closed/errored and the frame was dropped.
  // Single writer per handle (the one-uthread-per-connection contract).
  // Backpressure: callers above a high-water mark of SendQueuedBytes should
  // WaitForWritable, which returns once the queue drains.
  SKYLOFT_NO_SWITCH std::size_t SendEnqueue(IoHandle* handle, std::string frame);
  SKYLOFT_NO_SWITCH std::size_t SendQueuedBytes(IoHandle* handle);

  // Fire-and-forget datagram reply on a kDatagram handle (io_uring: async
  // SENDMSG owning the payload until its CQE; epoll: sendto). Returns false
  // if the frame was dropped (closed handle, submission-queue pressure, full
  // socket buffer) — UDP semantics.
  SKYLOFT_NO_SWITCH bool SendDatagram(IoHandle* handle, const sockaddr_in& to, std::string frame);

  // Diagnostics: one-line-per-handle snapshot of queue depths, latch bits,
  // armed ops and ring positions. Callable from any thread (takes the handle
  // and queue spinlocks briefly); for post-mortem debugging of stuck serving
  // loops, not for hot paths.
  SKYLOFT_NO_SWITCH void DumpDebug(std::FILE* out);

  // True when the ring is up, which also means the kernel passed the
  // multishot/pbuf-ring/send feature probe: an engine keeps its ring only
  // if it can serve the completion data path. Diagnostics only — the data
  // path API is the same either way.
  bool using_io_uring() const { return uring_fd_ >= 0; }
  // Whether completion-mode handles are served by io_uring completions;
  // equal to using_io_uring().
  bool completion() const { return using_io_uring(); }
  int worker() const { return worker_; }

 private:
  struct UringState;  // mmap'd ring pointers (io_uring backend only)
  struct DgramSendOp;  // heap-owned async SENDMSG (payload + msghdr + addr)

  SKYLOFT_NO_SWITCH void DeliverReady(IoHandle* handle, unsigned bits);
  SKYLOFT_NO_SWITCH void FreeRetired();
  SKYLOFT_NO_SWITCH void TrackHandle(IoHandle* handle);
  SKYLOFT_NO_SWITCH void UntrackHandle(IoHandle* handle);

  // Live-handle table spinlock (lock class `io_handles`): annotated so
  // skylint tracks hold windows across the registration/teardown paths.
  SKYLOFT_NO_SWITCH SKYLOFT_ACQUIRES(io_handles) void LockHandles();
  SKYLOFT_NO_SWITCH SKYLOFT_RELEASES(io_handles) void UnlockHandles();

  // io_uring submission-queue spinlock (lock class `uring_sq`); guards the
  // SQ tail/to_submit producer state shared by every worker that arms or
  // cancels an op on this engine.
  SKYLOFT_NO_SWITCH SKYLOFT_ACQUIRES(uring_sq) static void SqLock(UringState* s);
  SKYLOFT_NO_SWITCH SKYLOFT_RELEASES(uring_sq) static void SqUnlock(UringState* s);

  // Per-handle completion-queue spinlock (lock class `io_handle_q`); guards
  // the rx/accepted/tx queues shared between the home engine's reaping and
  // the (possibly stolen) handler uthread. Ordered before uring_sq: send
  // arming nests SqLock inside the queue lock, never the reverse.
  SKYLOFT_NO_SWITCH SKYLOFT_ACQUIRES(io_handle_q) static void QLock(IoCompletionState* cs);
  SKYLOFT_NO_SWITCH SKYLOFT_RELEASES(io_handle_q) static void QUnlock(IoCompletionState* cs);

  // Provided-buffer-ring producer spinlock (lock class `uring_buf`); guards
  // the ring tail shared by every worker that recycles a consumed buffer
  // back to this engine. Leaf lock: nothing nests inside it.
  SKYLOFT_NO_SWITCH SKYLOFT_ACQUIRES(uring_buf) static void BufLock(UringState* s);
  SKYLOFT_NO_SWITCH SKYLOFT_RELEASES(uring_buf) static void BufUnlock(UringState* s);

  // epoll backend.
  SKYLOFT_NO_SWITCH int EpollPoll();
  // Starts sending a kStream handle's queue (the backend's half of
  // SendEnqueue); returns kIoError if the queue had to be dropped.
  SKYLOFT_NO_SWITCH SKYLOFT_REQUIRES(io_handle_q) unsigned StartSendLocked(IoHandle* handle);
  // Writes the queue until it drains or the socket refuses more; returns the
  // bits to latch: kIoWritable (drained), kIoError (dropped) or 0 (the rest
  // waits for the next EPOLLOUT edge).
  SKYLOFT_NO_SWITCH SKYLOFT_REQUIRES(io_handle_q) unsigned EpollSendLocked(IoHandle* handle);
  // EpollPoll's EPOLLOUT continuation of a kStream handle's send queue.
  SKYLOFT_NO_SWITCH unsigned EpollContinueSend(IoHandle* handle);
  SKYLOFT_NO_SWITCH void FreeCompletionResources(IoHandle* handle);

  // io_uring backend, compiled only under SKYLOFT_IO_URING: the neutral
  // engine reaches these through `if constexpr` branches that builds
  // without io_uring discard. UringInit keeps the ring only if the
  // completion probe passes.
  bool UringInit();
  void UringShutdown();
  SKYLOFT_NO_SWITCH int UringPoll();
  // Arms the multishot POLL_ADD on epoll_fd_ whose CQEs trigger EpollPoll.
  SKYLOFT_NO_SWITCH bool ArmEpollPoll();
  // SQE slot claim/commit under the SQ lock. Prepare zeroes the next slot
  // (flushing inline once if the ring is full; null if still full); commit
  // publishes it.
  SKYLOFT_NO_SWITCH SKYLOFT_REQUIRES(uring_sq) void* SqePrepareLocked();
  SKYLOFT_NO_SWITCH SKYLOFT_REQUIRES(uring_sq) void SqeCommitLocked();
  SKYLOFT_NO_SWITCH void UringFinishCqe(IoHandle* handle);
  SKYLOFT_NO_SWITCH void UringSubmit();  // flushes queued SQEs, if any

  bool UringSetupCompletion();  // probe + pbuf ring + registered files
  void UringTeardownCompletion();
  // Register's ring half: arms the mode's multishot op on a handle whose
  // state Register allocated. False if the SQ is jammed; the caller frees
  // the handle.
  SKYLOFT_NO_SWITCH bool ArmCompletion(IoHandle* handle);
  // Deregister's ring half: cancels the handle's ops and drops the
  // registration reference (CQE-counted teardown).
  SKYLOFT_NO_SWITCH void UringDeregister(IoHandle* handle);
  SKYLOFT_NO_SWITCH bool ArmMainOp(IoHandle* handle);  // RECV/RECVMSG/ACCEPT by mode
  SKYLOFT_NO_SWITCH SKYLOFT_REQUIRES(io_handle_q) bool ArmSendLocked(IoHandle* handle);
  SKYLOFT_NO_SWITCH void QueueCancel(IoHandle* handle, std::uintptr_t target_tag);
  SKYLOFT_NO_SWITCH void HandleRecvCqe(IoHandle* handle, std::int32_t res, std::uint32_t flags);
  SKYLOFT_NO_SWITCH void HandleAcceptCqe(IoHandle* handle, std::int32_t res, std::uint32_t flags);
  SKYLOFT_NO_SWITCH void HandleSendCqe(IoHandle* handle, std::int32_t res);
  SKYLOFT_NO_SWITCH void StallHandle(IoHandle* handle);
  SKYLOFT_NO_SWITCH void RearmStalled();
  SKYLOFT_NO_SWITCH void RecycleToRing(std::uint16_t buf_id);
  SKYLOFT_NO_SWITCH bool UringPopDatagram(IoHandle* handle, IoDatagram* datagram);
  SKYLOFT_NO_SWITCH bool UringSendDatagram(IoHandle* handle, const sockaddr_in& to,
                                           std::string frame);
  SKYLOFT_NO_SWITCH int AllocFixedSlot(int fd);       // -1 when table off/full
  SKYLOFT_NO_SWITCH void ReleaseFixedSlot(int slot);

  int worker_;
  IoEngineOptions options_;
  IoEngineStats stats_;

  int epoll_fd_ = -1;
  int uring_fd_ = -1;  // >= 0 => io_uring completion backend active
  // Non-null exactly when uring_fd_ >= 0; always null without SKYLOFT_IO_URING.
  UringState* uring_ = nullptr;
  // Ring-side view of the epoll set (home worker only): whether the
  // multishot POLL_ADD on epoll_fd_ is armed, and whether the set must be
  // polled this round — its CQE fired, or the last epoll_wait returned a
  // full batch (the multishot poll only fires on new wakeups).
  bool epoll_poll_armed_ = false;
  bool epoll_pending_ = false;

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

  // Completion-mode handles whose multishot op died on -ENOBUFS (buffer ring
  // empty) or a transient accept error, awaiting a poll-round re-arm. Home
  // worker only; each entry holds one pending_cqes reference.
  std::vector<IoHandle*> stalled_;
  std::uint64_t last_recycled_ = 0;  // buf-recycle epoch at last re-arm sweep

  // Poll rounds since the last submission flush with SQEs still queued — the
  // deferred-submission clock (home worker only; see UringPoll's flush
  // policy).
  int submit_rounds_ = 0;
};

}  // namespace skyloft

#endif  // SRC_RUNTIME_IO_ENGINE_H_
