#include "src/runtime/io_engine.h"

#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <memory>
#include <string>

#include "src/base/logging.h"
#include "src/runtime/uthread.h"

#ifdef SKYLOFT_IO_URING
#include <linux/io_uring.h>
#include <poll.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#endif  // SKYLOFT_IO_URING

namespace skyloft {

namespace {

// Low bits of a CQE user_data distinguish what completed for a handle
// (IoHandle is cache-line aligned and DgramSendOp heap-allocated, so the
// bits are free).
constexpr std::uintptr_t kTagMask = 0x7;
constexpr std::uintptr_t kTagEpoll = 0;   // multishot POLL_ADD on the epoll fd (no pointer)
constexpr std::uintptr_t kTagCancel = 1;  // ASYNC_CANCEL CQE
constexpr std::uintptr_t kTagRecv = 2;    // multishot RECV/RECVMSG segment
constexpr std::uintptr_t kTagAccept = 3;  // multishot ACCEPT
constexpr std::uintptr_t kTagSend = 4;    // stream async send (SEND/SENDMSG)
constexpr std::uintptr_t kTagDgram = 5;   // datagram async SENDMSG (op ptr)

// Engine sizing: the epoll events (and CQEs) drained per Poll, the SQ depth,
// the registered-file table size, the iovec capacity of one stream send
// (frames folded into one sendmsg or async send), and the per-handle read
// buffer an epoll engine receives into.
constexpr int kMaxEvents = 256;
constexpr unsigned kUringEntries = 256;
constexpr int kFixedFileSlots = 4096;
constexpr int kMaxSendIovs = 16;
constexpr std::size_t kReadBufSize = 4096;

// Whether this build compiles the io_uring half. Branches on it are
// `if constexpr`, so builds without it never reference that half.
#ifdef SKYLOFT_IO_URING
constexpr bool kIoUringBuild = true;
#else
constexpr bool kIoUringBuild = false;
#endif

// Every engine registers its provided-buffer ring under one group id; rings
// are per-engine (per ring fd), so the ids never collide across engines.
constexpr std::uint16_t kBufGroup = 0;

void IncLane(ShardedCounter* c, int lane, std::uint64_t n = 1) {
  if (c != nullptr) {
    c->Inc(lane, n);
  }
}

}  // namespace

// Per-handle state of a completion-mode handle. The queues are shared
// between the home engine (reaping CQEs, or continuing a send on EPOLLOUT)
// and the handler uthread on whichever worker stole it; q_spin (lock class
// io_handle_q) guards them. Single-writer send contract: only the one
// handler uthread enqueues, so tx ordering needs no further synchronization
// beyond the spinlock.
struct IoCompletionState {
  std::atomic_flag q_spin = ATOMIC_FLAG_INIT;
  // Send queue, both backends. tx_off = bytes of tx.front() already sent;
  // tx_bytes = total unsent bytes. tx_inflight: io_uring has a send op armed
  // (tx_iov/tx_msg describe it, and the front frames they reference must not
  // be popped until its CQE); epoll waits for EPOLLOUT to write the rest.
  std::deque<std::string> tx;
  std::size_t tx_off = 0;
  std::size_t tx_bytes = 0;
  bool tx_inflight = false;
  iovec tx_iov[kMaxSendIovs];
  msghdr tx_msg{};
  // io_uring: received segments and accepted fds queued by the home engine,
  // the registered-file index (-1 = raw fd), and the multishot RECVMSG
  // template of a kDatagram handle (namelen reserves space for the sender
  // address that the kernel packs into the provided buffer).
  std::deque<IoRecvSlice> rx;
  std::deque<int> accepted;
  int fixed_slot = -1;
  msghdr rx_msg{};
  // epoll: the kStream/kDatagram read buffer (kReadBufSize bytes), and
  // whether a stream read already hit end of stream or an error (later pops
  // return false without another read()). Reader-only, like the buffer.
  std::unique_ptr<char[]> rd_buf;
  bool rd_done = false;
};

namespace {

// The send-queue steps both backends share; the caller holds the queue lock.

// Points tx_iov/tx_msg at the first kMaxSendIovs unsent frames and returns
// their byte count.
std::size_t BuildSendIov(IoCompletionState* cs) {
  std::size_t niov = 0;
  std::size_t bytes = 0;
  std::size_t skip = cs->tx_off;
  for (const std::string& frame : cs->tx) {
    if (niov == static_cast<std::size_t>(kMaxSendIovs)) {
      break;
    }
    cs->tx_iov[niov].iov_base = const_cast<char*>(frame.data()) + skip;
    cs->tx_iov[niov].iov_len = frame.size() - skip;
    bytes += frame.size() - skip;
    skip = 0;  // only the front frame carries an offset
    niov++;
  }
  cs->tx_msg.msg_iov = cs->tx_iov;
  cs->tx_msg.msg_iovlen = niov;
  return bytes;
}

// Retires `sent` bytes from the front of the queue; true once it is empty.
bool ConsumeSent(IoCompletionState* cs, std::size_t sent) {
  cs->tx_bytes -= std::min(sent, cs->tx_bytes);
  std::size_t consumed = cs->tx_off + sent;
  while (!cs->tx.empty() && consumed >= cs->tx.front().size()) {
    consumed -= cs->tx.front().size();
    cs->tx.pop_front();
  }
  cs->tx_off = consumed;
  return cs->tx.empty();
}

// Drops every unsent frame: the connection can no longer write, and
// teardown must not wait on bytes that can never leave.
void DropSendQueue(IoCompletionState* cs) {
  cs->tx.clear();
  cs->tx_off = 0;
  cs->tx_bytes = 0;
  cs->tx_inflight = false;
}

}  // namespace

void IoEngine::QLock(IoCompletionState* cs) {
  SpinBackoff backoff;
  while (cs->q_spin.test_and_set(std::memory_order_acquire)) {
    backoff.Pause();
  }
}

void IoEngine::QUnlock(IoCompletionState* cs) {
  cs->q_spin.clear(std::memory_order_release);
}

// ---------------------------------------------------------------------------
// io_uring completion backend (raw syscalls; liburing is not a dependency).
// Compiled only under SKYLOFT_IO_URING, which requires a kernel >= 6.0 uapi
// header (multishot recv/accept, provided buffer rings and
// io_uring_recvmsg_out landed together; CMake checks it). A kernel that
// refuses io_uring_setup (seccomp'd containers, CONFIG_IO_URING=n) or fails
// the feature probe leaves the engine on plain epoll.
// ---------------------------------------------------------------------------

#ifdef SKYLOFT_IO_URING

struct IoEngine::UringState {
  io_uring_params params{};
  // SQ ring.
  void* sq_ring = nullptr;
  std::size_t sq_ring_len = 0;
  unsigned* sq_head = nullptr;
  unsigned* sq_tail = nullptr;
  unsigned sq_mask = 0;
  unsigned* sq_array = nullptr;
  unsigned* sq_flags = nullptr;  // CQ_OVERFLOW
  io_uring_sqe* sqes = nullptr;
  std::size_t sqes_len = 0;
  // CQ ring (separate mmap unless IORING_FEAT_SINGLE_MMAP).
  void* cq_ring = nullptr;
  std::size_t cq_ring_len = 0;
  unsigned* cq_head = nullptr;
  unsigned* cq_tail = nullptr;
  unsigned cq_mask = 0;
  io_uring_cqe* cqes = nullptr;
  // SQE production is multi-producer (Deregister and the completion path's
  // SendEnqueue run on whatever worker the handler uthread was stolen to);
  // short spinlock.
  std::atomic_flag sqe_spin = ATOMIC_FLAG_INIT;
  // Mutated under sqe_spin; atomic so UringPoll's flush heuristic can read it
  // without taking the lock (a stale value just defers one round).
  std::atomic<unsigned> to_submit{0};

  // Provided buffer ring (IORING_REGISTER_PBUF_RING) + its backing arena.
  // Producer side (recycling consumed buffers) is multi-worker: a stolen
  // handler returns buffers from wherever it runs; buf_spin guards the
  // shadow tail. NOTE: slots are addressed via `bufs` (the ring base), NOT
  // io_uring_buf_ring::bufs — that flex-array member sits behind a
  // __DECLARE_FLEX_ARRAY empty struct whose size is 0 in C but >= 1 in C++,
  // shifting the member to offset 8 and silently corrupting every
  // descriptor the kernel reads from offset 0.
  io_uring_buf_ring* buf_ring = nullptr;
  io_uring_buf* bufs = nullptr;  // == ring base; slot i at bufs[i]
  std::size_t buf_ring_len = 0;
  unsigned buf_entries = 0;
  unsigned buf_mask = 0;
  std::unique_ptr<char[]> buf_arena;
  std::size_t buf_size = 0;
  std::atomic_flag buf_spin = ATOMIC_FLAG_INIT;
  std::uint16_t buf_tail = 0;  // producer shadow of buf_ring->tail
  // Recycle epoch: bumped on every returned buffer so the home engine knows
  // when re-arming an ENOBUFS-stalled recv can make progress.
  std::atomic<std::uint64_t> buf_recycled{0};
  // Registered-file table (IORING_REGISTER_FILES, sparse): free slot indices,
  // guarded by the engine's handles lock.
  bool fixed_files = false;
  std::vector<int> free_slots;
};

// Heap-owned async datagram reply: the SENDMSG op's msghdr, destination and
// payload must all outlive submission, so they travel with the op and are
// freed when its CQE arrives (tag kTagDgram carries the op pointer).
struct IoEngine::DgramSendOp {
  IoHandle* handle = nullptr;
  sockaddr_in to{};
  std::string payload;
  iovec iov{};
  msghdr msg{};
};

namespace {

int SysIoUringSetup(unsigned entries, io_uring_params* p) {
  return static_cast<int>(syscall(__NR_io_uring_setup, entries, p));
}

int SysIoUringEnter(int fd, unsigned to_submit, unsigned min_complete, unsigned flags) {
  return static_cast<int>(syscall(__NR_io_uring_enter, fd, to_submit, min_complete, flags,
                                  nullptr, 0));
}

int SysIoUringRegister(int fd, unsigned opcode, void* arg, unsigned nr_args) {
  return static_cast<int>(syscall(__NR_io_uring_register, fd, opcode, arg, nr_args));
}

// Deferred-submission thresholds (see the flush policy at the end of
// UringPoll): flush once this many SQEs are queued, or after this many poll
// rounds with anything queued at all, whichever comes first.
constexpr unsigned kSubmitEagerBatch = 32;
constexpr int kSubmitRoundLimit = 8;

unsigned RoundUpPow2(unsigned v) {
  unsigned p = 1;
  while (p < v) {
    p <<= 1;
  }
  return p;
}

}  // namespace

bool IoEngine::UringInit() {
  auto state = std::make_unique<UringState>();
  // Multishot recv can post many CQEs per submitted SQE, so ask for a CQ
  // several times deeper than the SQ; degrade gracefully for kernels that
  // reject CQSIZE.
  auto try_setup = [&](bool cqsize) {
    std::memset(&state->params, 0, sizeof(state->params));
    if (cqsize) {
      state->params.flags |= IORING_SETUP_CQSIZE;
      state->params.cq_entries = RoundUpPow2(std::max(4096u, 8u * kUringEntries));
    }
    return SysIoUringSetup(kUringEntries, &state->params);
  };
  int fd = try_setup(true);
  if (fd < 0) {
    fd = try_setup(false);
  }
  if (fd < 0) {
    return false;
  }
  UringState* s = state.get();
  s->sq_ring_len = s->params.sq_off.array + s->params.sq_entries * sizeof(unsigned);
  s->cq_ring_len = s->params.cq_off.cqes + s->params.cq_entries * sizeof(io_uring_cqe);
  const bool single_mmap = (s->params.features & IORING_FEAT_SINGLE_MMAP) != 0;
  if (single_mmap) {
    s->sq_ring_len = s->cq_ring_len = std::max(s->sq_ring_len, s->cq_ring_len);
  }
  s->sq_ring = mmap(nullptr, s->sq_ring_len, PROT_READ | PROT_WRITE, MAP_SHARED | MAP_POPULATE,
                    fd, IORING_OFF_SQ_RING);
  if (s->sq_ring == MAP_FAILED) {
    close(fd);
    return false;
  }
  s->cq_ring = single_mmap
                   ? s->sq_ring
                   : mmap(nullptr, s->cq_ring_len, PROT_READ | PROT_WRITE,
                          MAP_SHARED | MAP_POPULATE, fd, IORING_OFF_CQ_RING);
  if (s->cq_ring == MAP_FAILED) {
    munmap(s->sq_ring, s->sq_ring_len);
    close(fd);
    return false;
  }
  s->sqes_len = s->params.sq_entries * sizeof(io_uring_sqe);
  s->sqes = static_cast<io_uring_sqe*>(mmap(nullptr, s->sqes_len, PROT_READ | PROT_WRITE,
                                            MAP_SHARED | MAP_POPULATE, fd, IORING_OFF_SQES));
  if (s->sqes == MAP_FAILED) {
    if (!single_mmap) {
      munmap(s->cq_ring, s->cq_ring_len);
    }
    munmap(s->sq_ring, s->sq_ring_len);
    close(fd);
    return false;
  }
  auto* sq = static_cast<unsigned char*>(s->sq_ring);
  s->sq_head = reinterpret_cast<unsigned*>(sq + s->params.sq_off.head);
  s->sq_tail = reinterpret_cast<unsigned*>(sq + s->params.sq_off.tail);
  s->sq_mask = *reinterpret_cast<unsigned*>(sq + s->params.sq_off.ring_mask);
  s->sq_array = reinterpret_cast<unsigned*>(sq + s->params.sq_off.array);
  s->sq_flags = reinterpret_cast<unsigned*>(sq + s->params.sq_off.flags);
  auto* cq = static_cast<unsigned char*>(s->cq_ring);
  s->cq_head = reinterpret_cast<unsigned*>(cq + s->params.cq_off.head);
  s->cq_tail = reinterpret_cast<unsigned*>(cq + s->params.cq_off.tail);
  s->cq_mask = *reinterpret_cast<unsigned*>(cq + s->params.cq_off.ring_mask);
  s->cqes = reinterpret_cast<io_uring_cqe*>(cq + s->params.cq_off.cqes);

  uring_fd_ = fd;
  uring_ = state.release();
  if (!UringSetupCompletion()) {
    // A ring that cannot serve completions has nothing left to do: readiness
    // is epoll's job.
    UringShutdown();
    return false;
  }
  // Queued here and submitted by the home worker's first flush, so the
  // poll is owned by the thread that reaps its CQEs.
  epoll_poll_armed_ = ArmEpollPoll();
  return true;
}

void IoEngine::UringShutdown() {
  if (uring_ == nullptr) {
    return;
  }
  UringTeardownCompletion();
  munmap(uring_->sqes, uring_->sqes_len);
  const bool single_mmap = (uring_->params.features & IORING_FEAT_SINGLE_MMAP) != 0;
  if (!single_mmap) {
    munmap(uring_->cq_ring, uring_->cq_ring_len);
  }
  munmap(uring_->sq_ring, uring_->sq_ring_len);
  close(uring_fd_);
  uring_fd_ = -1;
  delete uring_;
  uring_ = nullptr;
}

void IoEngine::SqLock(UringState* s) {
  SpinBackoff backoff;
  while (s->sqe_spin.test_and_set(std::memory_order_acquire)) {
    backoff.Pause();
  }
}

void IoEngine::SqUnlock(UringState* s) { s->sqe_spin.clear(std::memory_order_release); }

void* IoEngine::SqePrepareLocked() {
  UringState* s = uring_;
  const unsigned head = __atomic_load_n(s->sq_head, __ATOMIC_ACQUIRE);
  const unsigned tail = *s->sq_tail;
  if (tail - head >= s->params.sq_entries) {
    // SQ full: flush what is queued inline and retry once; a second failure
    // means the ring is badly undersized — report it to the caller.
    SysIoUringEnter(uring_fd_, s->to_submit.load(std::memory_order_relaxed), 0, 0);
    IncLane(stats_.sys_enter, worker_);
    s->to_submit.store(0, std::memory_order_relaxed);
    if (*s->sq_tail - __atomic_load_n(s->sq_head, __ATOMIC_ACQUIRE) >= s->params.sq_entries) {
      return nullptr;
    }
  }
  io_uring_sqe* sqe = &s->sqes[*s->sq_tail & s->sq_mask];
  std::memset(sqe, 0, sizeof(*sqe));
  return sqe;
}

void IoEngine::SqeCommitLocked() {
  UringState* s = uring_;
  const unsigned tail = *s->sq_tail;
  const unsigned index = tail & s->sq_mask;
  s->sq_array[index] = index;
  __atomic_store_n(s->sq_tail, tail + 1, __ATOMIC_RELEASE);
  s->to_submit.fetch_add(1, std::memory_order_relaxed);
}

bool IoEngine::ArmEpollPoll() {
  // Single unlock point (no early unlock-and-return): skylint's lock walk is
  // lexical, so an SqUnlock inside a return branch would mark the commit
  // below as unlocked. Same shape in every SQE-arming function here.
  UringState* s = uring_;
  SqLock(s);
  auto* sqe = static_cast<io_uring_sqe*>(SqePrepareLocked());
  if (sqe != nullptr) {
    sqe->opcode = IORING_OP_POLL_ADD;
    sqe->fd = epoll_fd_;
    sqe->poll32_events = POLLIN;
    sqe->len = IORING_POLL_ADD_MULTI;
    sqe->user_data = kTagEpoll;
    SqeCommitLocked();
  }
  SqUnlock(s);
  return sqe != nullptr;
}

// Retires one reference: an expected CQE, a stall-list entry, or the
// registration reference Deregister drops. Whoever drops the last one owns
// the free; the registration reference means that cannot happen before
// Deregister. (A "count hit zero and closed" test would race: a reaper's
// decrement to zero, then a Deregister that takes references and publishes
// closed, then the reaper's closed check — both would free.) Must be the
// caller's LAST touch of the handle.
void IoEngine::UringFinishCqe(IoHandle* handle) {
  if (handle->pending_cqes.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    FreeCompletionResources(handle);
    UntrackHandle(handle);
    delete handle;
  }
}

void IoEngine::UringSubmit() {
  UringState* s = uring_;
  submit_rounds_ = 0;
  if (s->to_submit.load(std::memory_order_relaxed) == 0) {
    return;
  }
  SqLock(s);
  const unsigned n = s->to_submit.load(std::memory_order_relaxed);
  s->to_submit.store(0, std::memory_order_relaxed);
  SqUnlock(s);
  if (n > 0) {
    SysIoUringEnter(uring_fd_, n, 0, 0);
    IncLane(stats_.sys_enter, worker_);
  }
}

int IoEngine::UringPoll() {
  UringState* s = uring_;
  RearmStalled();
  int dispatched = 0;
  unsigned head = __atomic_load_n(s->cq_head, __ATOMIC_ACQUIRE);
  const unsigned tail = __atomic_load_n(s->cq_tail, __ATOMIC_ACQUIRE);
  while (head != tail && dispatched < kMaxEvents) {
    const io_uring_cqe* cqe = &s->cqes[head & s->cq_mask];
    const std::uintptr_t tag = cqe->user_data & kTagMask;
    if (tag == kTagEpoll) {
      // The epoll set has something ready; its events are dispatched by the
      // EpollPoll below. A CQE without F_MORE ended the multishot.
      epoll_pending_ = true;
      if ((cqe->flags & IORING_CQE_F_MORE) == 0) {
        epoll_poll_armed_ = false;
      }
      head++;
      continue;
    }
    if (tag == kTagDgram) {
      // The op pointer travels in the user_data; its CQE is the free point
      // for the payload and one expected CQE of the owning handle. Send
      // errors are intentionally dropped — UDP replies are best-effort.
      auto* op = reinterpret_cast<DgramSendOp*>(cqe->user_data & ~kTagMask);
      IoHandle* handle = op->handle;
      delete op;
      UringFinishCqe(handle);
      dispatched++;
      head++;
      continue;
    }
    auto* handle = reinterpret_cast<IoHandle*>(cqe->user_data & ~kTagMask);
    if (tag == kTagCancel) {
      // One CQE per ASYNC_CANCEL submitted by Deregister.
      UringFinishCqe(handle);
    } else if (tag == kTagRecv) {
      HandleRecvCqe(handle, cqe->res, cqe->flags);
      dispatched++;
    } else if (tag == kTagAccept) {
      HandleAcceptCqe(handle, cqe->res, cqe->flags);
      dispatched++;
    } else {  // kTagSend
      HandleSendCqe(handle, cqe->res);
      dispatched++;
    }
    head++;
  }
  __atomic_store_n(s->cq_head, head, __ATOMIC_RELEASE);
  if ((__atomic_load_n(s->sq_flags, __ATOMIC_ACQUIRE) & IORING_SQ_CQ_OVERFLOW) != 0) {
    // A CQ overflow parked completions kernel-side; flush them into the ring
    // so the next Poll can reap (the deep CQSIZE ring makes this rare).
    SysIoUringEnter(uring_fd_, 0, 0, IORING_ENTER_GETEVENTS);
    IncLane(stats_.sys_enter, worker_);
  }
  if (!epoll_poll_armed_) {
    // Re-arm a terminated epoll poll, and poll the set every round until the
    // arm sticks: events that arrived meanwhile raised no CQE.
    epoll_poll_armed_ = ArmEpollPoll();
    epoll_pending_ = true;
  }
  if (epoll_pending_) {
    const int n = EpollPoll();
    // A full batch may have left events behind, and the multishot poll only
    // fires on new wakeups: poll the set again next round.
    epoll_pending_ = n == kMaxEvents;
    dispatched += n;
  }
  // The batched-submission point: every op queued since the last round —
  // handler sends, registrations, cancels, plus the re-arms above — goes to
  // the kernel in one enter. Reaping above is pure shared-memory work, so it
  // runs every scheduler round; the enter() is DEFERRED until a worthwhile
  // batch accumulated or a flush is overdue — the scheduler polls between
  // every two uthread segments, so an eager flush here would pay one syscall
  // per handler send. The worker loop's pre-idle FlushSubmissions() bounds
  // the added latency whenever the runqueue drains; the round limit bounds it
  // when a yield-spinning uthread keeps the worker out of the idle path.
  const unsigned pending = s->to_submit.load(std::memory_order_relaxed);
  if (pending == 0) {
    submit_rounds_ = 0;
  } else if (pending >= kSubmitEagerBatch || ++submit_rounds_ >= kSubmitRoundLimit) {
    UringSubmit();
  }
  return dispatched;
}

// ---------------------------------------------------------------------------
// Completion data path (multishot RECV/RECVMSG/ACCEPT + provided buffers +
// async sends), probed at ring setup.
// ---------------------------------------------------------------------------

void IoEngine::BufLock(UringState* s) {
  SpinBackoff backoff;
  while (s->buf_spin.test_and_set(std::memory_order_acquire)) {
    backoff.Pause();
  }
}

void IoEngine::BufUnlock(UringState* s) { s->buf_spin.clear(std::memory_order_release); }

namespace {

// Logged once per process, not per engine: every worker's engine probes the
// same kernel, and a line per engine would just repeat it.
void LogCompletionFallbackOnce(const char* why) {
  static std::atomic<bool> logged{false};
  if (!logged.exchange(true, std::memory_order_acq_rel)) {
    SKYLOFT_LOG(kInfo) << "io_uring completion data path unavailable (" << why
                       << "); serving on epoll";
  }
}

}  // namespace

bool IoEngine::UringSetupCompletion() {
  UringState* s = uring_;
  // Feature probe: every op the completion path arms must be supported.
  // IORING_OP_SEND_ZC doubles as the kernel >= 6.0 marker — the generation
  // where multishot RECV and provided buffer rings are complete — since
  // probe flags only say an opcode exists, not which sqe flags it honours.
  constexpr unsigned kProbeOps = 256;
  std::vector<unsigned char> probe_mem(
      sizeof(io_uring_probe) + kProbeOps * sizeof(io_uring_probe_op), 0);
  auto* probe = reinterpret_cast<io_uring_probe*>(probe_mem.data());
  if (SysIoUringRegister(uring_fd_, IORING_REGISTER_PROBE, probe, kProbeOps) < 0) {
    LogCompletionFallbackOnce("probe rejected");
    return false;
  }
  const auto supported = [probe](unsigned op) {
    return op <= probe->last_op && (probe->ops[op].flags & IO_URING_OP_SUPPORTED) != 0;
  };
  for (const unsigned op : {static_cast<unsigned>(IORING_OP_RECV),
                            static_cast<unsigned>(IORING_OP_SEND),
                            static_cast<unsigned>(IORING_OP_SENDMSG),
                            static_cast<unsigned>(IORING_OP_RECVMSG),
                            static_cast<unsigned>(IORING_OP_ACCEPT),
                            static_cast<unsigned>(IORING_OP_ASYNC_CANCEL),
                            static_cast<unsigned>(IORING_OP_SEND_ZC)}) {
    if (!supported(op)) {
      LogCompletionFallbackOnce("op probe short");
      return false;
    }
  }
  // Provided buffer ring: one page-aligned ring of descriptors plus a flat
  // arena the kernel scatters received bytes into.
  const unsigned entries = RoundUpPow2(static_cast<unsigned>(
      std::clamp(options_.buf_ring_entries, 8, 32768)));
  const std::size_t ring_len = entries * sizeof(io_uring_buf);
  void* ring_mem = mmap(nullptr, ring_len, PROT_READ | PROT_WRITE,
                        MAP_ANONYMOUS | MAP_PRIVATE, -1, 0);
  if (ring_mem == MAP_FAILED) {
    LogCompletionFallbackOnce("buffer ring mmap failed");
    return false;
  }
  io_uring_buf_reg reg{};
  reg.ring_addr = reinterpret_cast<std::uintptr_t>(ring_mem);
  reg.ring_entries = entries;
  reg.bgid = kBufGroup;
  if (SysIoUringRegister(uring_fd_, IORING_REGISTER_PBUF_RING, &reg, 1) < 0) {
    munmap(ring_mem, ring_len);
    LogCompletionFallbackOnce("pbuf ring register refused");
    return false;
  }
  s->buf_ring = static_cast<io_uring_buf_ring*>(ring_mem);
  s->bufs = static_cast<io_uring_buf*>(ring_mem);
  s->buf_ring_len = ring_len;
  s->buf_entries = entries;
  s->buf_mask = entries - 1;
  s->buf_size = static_cast<std::size_t>(std::max(256, options_.buf_size));
  s->buf_arena = std::make_unique<char[]>(entries * s->buf_size);
  for (unsigned i = 0; i < entries; i++) {
    io_uring_buf* slot = &s->bufs[i];
    slot->addr = reinterpret_cast<std::uintptr_t>(s->buf_arena.get() + i * s->buf_size);
    slot->len = static_cast<std::uint32_t>(s->buf_size);
    slot->bid = static_cast<std::uint16_t>(i);
  }
  s->buf_tail = static_cast<std::uint16_t>(entries);
  __atomic_store_n(&s->buf_ring->tail, s->buf_tail, __ATOMIC_RELEASE);
  // Registered files are an optimization, not a requirement: losing them
  // keeps the completion path on raw fds.
  std::vector<int> table(static_cast<std::size_t>(kFixedFileSlots), -1);
  if (SysIoUringRegister(uring_fd_, IORING_REGISTER_FILES, table.data(),
                         static_cast<unsigned>(table.size())) == 0) {
    s->fixed_files = true;
    s->free_slots.reserve(table.size());
    for (int slot = kFixedFileSlots - 1; slot >= 0; slot--) {
      s->free_slots.push_back(slot);
    }
  }
  return true;
}

void IoEngine::UringTeardownCompletion() {
  UringState* s = uring_;
  if (s->buf_ring != nullptr) {
    munmap(s->buf_ring, s->buf_ring_len);
    s->buf_ring = nullptr;
  }
}

int IoEngine::AllocFixedSlot(int fd) {
  UringState* s = uring_;
  if (!s->fixed_files) {
    return -1;
  }
  int slot = -1;
  LockHandles();
  if (!s->free_slots.empty()) {
    slot = s->free_slots.back();
    s->free_slots.pop_back();
  }
  UnlockHandles();
  if (slot < 0) {
    return -1;
  }
  io_uring_files_update up{};
  up.offset = static_cast<unsigned>(slot);
  up.fds = reinterpret_cast<std::uintptr_t>(&fd);
  if (SysIoUringRegister(uring_fd_, IORING_REGISTER_FILES_UPDATE, &up, 1) < 0) {
    LockHandles();
    s->free_slots.push_back(slot);
    UnlockHandles();
    return -1;
  }
  return slot;
}

void IoEngine::ReleaseFixedSlot(int slot) {
  UringState* s = uring_;
  int minus_one = -1;
  io_uring_files_update up{};
  up.offset = static_cast<unsigned>(slot);
  up.fds = reinterpret_cast<std::uintptr_t>(&minus_one);
  // Clearing the slot releases the table's file reference — the last one by
  // now, since Deregister already closed the fd number.
  SysIoUringRegister(uring_fd_, IORING_REGISTER_FILES_UPDATE, &up, 1);
  LockHandles();
  s->free_slots.push_back(slot);
  UnlockHandles();
}

bool IoEngine::ArmCompletion(IoHandle* handle) {
  IoCompletionState* cs = handle->cs;
  if (handle->mode == IoRegisterMode::kDatagram) {
    cs->rx_msg.msg_namelen = sizeof(sockaddr_in);
  }
  cs->fixed_slot = AllocFixedSlot(handle->fd);
  // Pre-publication: one reference for the main op's expected terminal CQE,
  // counted before the kernel can post it, and one held by the registration
  // until Deregister drops it.
  handle->main_op_armed.store(true, std::memory_order_relaxed);
  handle->pending_cqes.store(2, std::memory_order_relaxed);
  if (ArmMainOp(handle)) {
    return true;
  }
  if (cs->fixed_slot >= 0) {
    ReleaseFixedSlot(cs->fixed_slot);
    cs->fixed_slot = -1;
  }
  return false;
}

bool IoEngine::ArmMainOp(IoHandle* handle) {
  UringState* s = uring_;
  IoCompletionState* cs = handle->cs;
  SKYLOFT_CHECK(handle->mode != IoRegisterMode::kReadiness) << "ArmMainOp on a readiness handle";
  SqLock(s);
  auto* sqe = static_cast<io_uring_sqe*>(SqePrepareLocked());
  if (sqe != nullptr) {
    const bool fixed = cs->fixed_slot >= 0;
    sqe->fd = fixed ? cs->fixed_slot : handle->fd;
    if (fixed) {
      sqe->flags |= IOSQE_FIXED_FILE;
    }
    switch (handle->mode) {
      case IoRegisterMode::kStream:
        sqe->opcode = IORING_OP_RECV;
        sqe->ioprio = IORING_RECV_MULTISHOT;
        sqe->flags |= IOSQE_BUFFER_SELECT;
        sqe->buf_group = kBufGroup;
        sqe->user_data = reinterpret_cast<std::uintptr_t>(handle) | kTagRecv;
        break;
      case IoRegisterMode::kDatagram:
        sqe->opcode = IORING_OP_RECVMSG;
        sqe->ioprio = IORING_RECV_MULTISHOT;
        sqe->flags |= IOSQE_BUFFER_SELECT;
        sqe->buf_group = kBufGroup;
        sqe->addr = reinterpret_cast<std::uintptr_t>(&cs->rx_msg);
        sqe->user_data = reinterpret_cast<std::uintptr_t>(handle) | kTagRecv;
        break;
      case IoRegisterMode::kListener:
        sqe->opcode = IORING_OP_ACCEPT;
        sqe->ioprio = IORING_ACCEPT_MULTISHOT;
        sqe->accept_flags = SOCK_NONBLOCK | SOCK_CLOEXEC;
        sqe->user_data = reinterpret_cast<std::uintptr_t>(handle) | kTagAccept;
        break;
      case IoRegisterMode::kReadiness:
        break;  // unreachable, checked on entry
    }
    SqeCommitLocked();
  }
  SqUnlock(s);
  return sqe != nullptr;
}

// Arms the next SEND/SENDMSG for the queued front frames. Caller holds the
// handle's queue lock; nests the SQ lock inside it (lock order
// io_handle_q -> uring_sq, everywhere). MSG_NOSIGNAL keeps a reset peer from
// raising SIGPIPE out of the kernel's async context.
bool IoEngine::ArmSendLocked(IoHandle* handle) {
  IoCompletionState* cs = handle->cs;
  BuildSendIov(cs);
  SKYLOFT_CHECK(cs->tx_msg.msg_iovlen > 0) << "ArmSendLocked with an empty send queue";
  UringState* s = uring_;
  SqLock(s);
  auto* sqe = static_cast<io_uring_sqe*>(SqePrepareLocked());
  if (sqe != nullptr) {
    const bool fixed = cs->fixed_slot >= 0;
    sqe->fd = fixed ? cs->fixed_slot : handle->fd;
    if (fixed) {
      sqe->flags |= IOSQE_FIXED_FILE;
    }
    if (cs->tx_msg.msg_iovlen == 1) {
      sqe->opcode = IORING_OP_SEND;
      sqe->addr = reinterpret_cast<std::uintptr_t>(cs->tx_iov[0].iov_base);
      sqe->len = static_cast<std::uint32_t>(cs->tx_iov[0].iov_len);
    } else {
      sqe->opcode = IORING_OP_SENDMSG;
      sqe->addr = reinterpret_cast<std::uintptr_t>(&cs->tx_msg);
    }
    sqe->msg_flags = MSG_NOSIGNAL;
    sqe->user_data = reinterpret_cast<std::uintptr_t>(handle) | kTagSend;
    SqeCommitLocked();
  }
  SqUnlock(s);
  if (sqe == nullptr) {
    return false;
  }
  IncLane(stats_.send_ops, worker_);
  return true;
}

void IoEngine::QueueCancel(IoHandle* handle, std::uintptr_t target_tag) {
  // Must not fail (a dropped cancel means a leaked handle); the inline flush
  // in SqePrepareLocked drains a full SQ, so the retry terminates.
  UringState* s = uring_;
  SpinBackoff backoff;
  while (true) {
    SqLock(s);
    auto* sqe = static_cast<io_uring_sqe*>(SqePrepareLocked());
    if (sqe != nullptr) {
      sqe->opcode = IORING_OP_ASYNC_CANCEL;
      sqe->addr = reinterpret_cast<std::uintptr_t>(handle) | target_tag;
      sqe->user_data = reinterpret_cast<std::uintptr_t>(handle) | kTagCancel;
      SqeCommitLocked();
      SqUnlock(s);
      return;
    }
    SqUnlock(s);
    backoff.Pause();
  }
}

void IoEngine::StallHandle(IoHandle* handle) {
  // Home-worker only (called while reaping). The terminal CQE's expected-CQE
  // reference transfers to the list entry, keeping the handle alive until
  // RearmStalled either re-arms (reference moves back to the op) or observes
  // the close (reference dropped via UringFinishCqe).
  stalled_.push_back(handle);
}

void IoEngine::RearmStalled() {
  if (stalled_.empty()) {
    return;
  }
  UringState* s = uring_;
  const std::uint64_t recycled = s->buf_recycled.load(std::memory_order_acquire);
  const bool bufs_back = recycled != last_recycled_;
  std::size_t kept = 0;
  for (IoHandle* handle : stalled_) {
    if (handle->closed.load(std::memory_order_acquire)) {
      UringFinishCqe(handle);  // drop the list reference; may free
      continue;
    }
    // ENOBUFS-stalled recvs only retry once a buffer came back; accept
    // stalls (EMFILE bursts) retry every round — their resource isn't ours
    // to observe.
    const bool listener = handle->mode == IoRegisterMode::kListener;
    if (!listener && !bufs_back) {
      stalled_[kept++] = handle;
      continue;
    }
    // Publish-then-recheck against a concurrent Deregister (which stores
    // closed, then reads armed): with seq_cst on both sides at least one of
    // us sees the other, so a re-armed op always has a cancel coming or is
    // never armed at all.
    handle->main_op_armed.store(true, std::memory_order_seq_cst);
    if (handle->closed.load(std::memory_order_seq_cst)) {
      handle->main_op_armed.store(false, std::memory_order_release);
      UringFinishCqe(handle);
      continue;
    }
    if (!ArmMainOp(handle)) {
      handle->main_op_armed.store(false, std::memory_order_release);
      stalled_[kept++] = handle;
    }
  }
  stalled_.resize(kept);
  last_recycled_ = recycled;
}

void IoEngine::HandleRecvCqe(IoHandle* handle, std::int32_t res, std::uint32_t flags) {
  const bool more = (flags & IORING_CQE_F_MORE) != 0;
  const bool has_buf = (flags & IORING_CQE_F_BUFFER) != 0;
  const auto bid = static_cast<std::uint16_t>(flags >> IORING_CQE_BUFFER_SHIFT);
  if (handle->closed.load(std::memory_order_acquire)) {
    // Stale completion for a deregistered handle: the buffer still belongs
    // to the ring, the data does not belong to anyone.
    if (has_buf) {
      RecycleToRing(bid);
    }
    if (!more) {
      handle->main_op_armed.store(false, std::memory_order_release);
      UringFinishCqe(handle);
    }
    return;
  }
  if (res < 0) {
    // Errors are terminal for the multishot (the kernel never sets F_MORE on
    // them).
    handle->main_op_armed.store(false, std::memory_order_release);
    if (res == -ENOBUFS) {
      // Provided-buffer ring ran dry: park on the stall list and re-arm once
      // a consumer recycles — the backpressure path, not an error.
      IncLane(stats_.buf_exhaustions, worker_);
      StallHandle(handle);
      return;
    }
    DeliverReady(handle, kIoError);
    UringFinishCqe(handle);
    return;
  }
  if (res == 0) {
    // Stream EOF. Terminal: re-arming would just replay 0-byte completions.
    if (has_buf) {
      RecycleToRing(bid);
    }
    handle->main_op_armed.store(false, std::memory_order_release);
    DeliverReady(handle, kIoHup);
    if (!more) {
      UringFinishCqe(handle);
    }
    return;
  }
  if (has_buf) {
    IoCompletionState* cs = handle->cs;
    UringState* s = uring_;
    const IoRecvSlice slice{s->buf_arena.get() + static_cast<std::size_t>(bid) * s->buf_size,
                            static_cast<std::uint32_t>(res), bid};
    QLock(cs);
    cs->rx.push_back(slice);
    QUnlock(cs);
    IncLane(stats_.recv_segments, worker_);
    DeliverReady(handle, kIoReadable);
  }
  if (!more) {
    // The kernel retired the multishot without an error (e.g. bufs were
    // momentarily short); re-arm inline so the data path keeps flowing.
    if (!ArmMainOp(handle)) {
      handle->main_op_armed.store(false, std::memory_order_release);
      DeliverReady(handle, kIoError);
      UringFinishCqe(handle);
    }
  }
}

void IoEngine::HandleAcceptCqe(IoHandle* handle, std::int32_t res, std::uint32_t flags) {
  const bool more = (flags & IORING_CQE_F_MORE) != 0;
  if (handle->closed.load(std::memory_order_acquire)) {
    if (res >= 0) {
      close(res);  // accepted after the listener was torn down
    }
    if (!more) {
      handle->main_op_armed.store(false, std::memory_order_release);
      UringFinishCqe(handle);
    }
    return;
  }
  if (res < 0) {
    handle->main_op_armed.store(false, std::memory_order_release);
    if (res == -ECANCELED) {
      UringFinishCqe(handle);
      return;
    }
    // Transient accept failure (ECONNABORTED, EMFILE burst): retry from the
    // stall list next poll round rather than killing the listener.
    StallHandle(handle);
    return;
  }
  IoCompletionState* cs = handle->cs;
  QLock(cs);
  cs->accepted.push_back(res);
  QUnlock(cs);
  IncLane(stats_.completion_accepts, worker_);
  DeliverReady(handle, kIoReadable);
  if (!more) {
    if (!ArmMainOp(handle)) {
      handle->main_op_armed.store(false, std::memory_order_release);
      DeliverReady(handle, kIoError);
      UringFinishCqe(handle);
    }
  }
}

void IoEngine::HandleSendCqe(IoHandle* handle, std::int32_t res) {
  IoCompletionState* cs = handle->cs;
  unsigned latch = 0;
  bool finished = true;  // this CQE retires the in-flight send unless re-armed
  QLock(cs);
  if (res < 0) {
    // EPIPE/ECONNRESET and friends: the connection is done writing.
    DropSendQueue(cs);
    latch = kIoError;
  } else if (ConsumeSent(cs, static_cast<std::size_t>(res))) {
    cs->tx_inflight = false;
    latch = kIoWritable;  // drained: wake a backpressured writer
  } else if (handle->closed.load(std::memory_order_acquire)) {
    DropSendQueue(cs);
  } else if (ArmSendLocked(handle)) {
    finished = false;  // short send: continuation keeps the expected CQE
  } else {
    cs->tx_inflight = false;
    latch = kIoError;
  }
  QUnlock(cs);
  if (latch != 0) {
    DeliverReady(handle, latch);  // no-op on closed handles
  }
  if (finished) {
    UringFinishCqe(handle);
  }
}

void IoEngine::RecycleToRing(std::uint16_t buf_id) {
  UringState* s = uring_;
  BufLock(s);
  const std::uint16_t tail = s->buf_tail;
  io_uring_buf* slot = &s->bufs[tail & s->buf_mask];
  slot->addr = reinterpret_cast<std::uintptr_t>(
      s->buf_arena.get() + static_cast<std::size_t>(buf_id) * s->buf_size);
  slot->len = static_cast<std::uint32_t>(s->buf_size);
  slot->bid = buf_id;
  s->buf_tail = static_cast<std::uint16_t>(tail + 1);
  __atomic_store_n(&s->buf_ring->tail, s->buf_tail, __ATOMIC_RELEASE);
  BufUnlock(s);
  s->buf_recycled.fetch_add(1, std::memory_order_release);
}

bool IoEngine::UringPopDatagram(IoHandle* handle, IoDatagram* datagram) {
  IoRecvSlice slice;
  if (!PopRecv(handle, &slice)) {  // on a ring engine: the queued segments
    return false;
  }
  *datagram = IoDatagram{};
  datagram->data = slice.data;
  datagram->buf_id = slice.buf_id;
  // Multishot RECVMSG packs [io_uring_recvmsg_out][name area][control area]
  // [payload] into the provided buffer; the armed msghdr reserved
  // sizeof(sockaddr_in) of name space and no control space. A datagram (or
  // sender address) that did not fit keeps len 0.
  const std::size_t payload_off = sizeof(io_uring_recvmsg_out) + sizeof(sockaddr_in);
  if (slice.len < payload_off) {
    return true;
  }
  io_uring_recvmsg_out hdr;
  std::memcpy(&hdr, slice.data, sizeof(hdr));
  if (slice.len - payload_off < hdr.payloadlen || hdr.namelen < sizeof(sockaddr_in)) {
    return true;
  }
  std::memcpy(&datagram->peer, slice.data + sizeof(hdr), sizeof(datagram->peer));
  datagram->data = slice.data + payload_off;
  datagram->len = hdr.payloadlen;
  return true;
}

bool IoEngine::UringSendDatagram(IoHandle* handle, const sockaddr_in& to, std::string frame) {
  IoCompletionState* cs = handle->cs;
  auto* op = new DgramSendOp;
  op->handle = handle;
  op->to = to;
  op->payload = std::move(frame);
  op->iov.iov_base = const_cast<char*>(op->payload.data());
  op->iov.iov_len = op->payload.size();
  op->msg.msg_name = &op->to;
  op->msg.msg_namelen = sizeof(op->to);
  op->msg.msg_iov = &op->iov;
  op->msg.msg_iovlen = 1;
  // The caller is the handle's serving uthread, so no concurrent Deregister
  // can race this expected-CQE count (same single-owner argument as
  // SendEnqueue).
  handle->pending_cqes.fetch_add(1, std::memory_order_acq_rel);
  UringState* s = uring_;
  SqLock(s);
  auto* sqe = static_cast<io_uring_sqe*>(SqePrepareLocked());
  if (sqe != nullptr) {
    const bool fixed = cs->fixed_slot >= 0;
    sqe->fd = fixed ? cs->fixed_slot : handle->fd;
    if (fixed) {
      sqe->flags |= IOSQE_FIXED_FILE;
    }
    sqe->opcode = IORING_OP_SENDMSG;
    sqe->addr = reinterpret_cast<std::uintptr_t>(&op->msg);
    sqe->msg_flags = MSG_NOSIGNAL;
    sqe->user_data = reinterpret_cast<std::uintptr_t>(op) | kTagDgram;
    SqeCommitLocked();
  }
  SqUnlock(s);
  if (sqe == nullptr) {
    handle->pending_cqes.fetch_sub(1, std::memory_order_acq_rel);
    delete op;
    return false;  // SQ jammed: drop the reply, exactly like UDP overload
  }
  IncLane(stats_.send_ops, worker_);
  return true;
}

void IoEngine::UringDeregister(IoHandle* handle) {
  // The registration reference keeps the handle alive until the end of this
  // function, however the reaper's counts interleave. seq_cst pairs with
  // RearmStalled's armed-store/closed-recheck so the two can never both miss
  // each other (a stalled handle re-armed with no cancel queued).
  const bool was_closed = handle->closed.exchange(true, std::memory_order_seq_cst);
  SKYLOFT_CHECK(!was_closed) << "double Deregister of fd " << handle->fd;
  // Cancel every outstanding op — the multishot RECV/RECVMSG/ACCEPT and an
  // in-flight async send. A pending op holds a file reference, so closing
  // the fd alone would not complete it and its CQE could fire after the
  // handle was freed. Each cancel yields its own CQE too; count both before
  // queueing. The fd can be closed right away — ASYNC_CANCEL targets by
  // user_data, not fd.
  if (handle->main_op_armed.load(std::memory_order_seq_cst)) {
    handle->pending_cqes.fetch_add(1, std::memory_order_acq_rel);
    QueueCancel(handle, handle->mode == IoRegisterMode::kListener ? kTagAccept : kTagRecv);
  }
  // An in-flight async send could otherwise stay queued indefinitely
  // (zero-window peer) pinning the handle; cancel unconditionally — a miss
  // just yields a -ENOENT cancel CQE, which the +1 below absorbs either way.
  handle->pending_cqes.fetch_add(1, std::memory_order_acq_rel);
  QueueCancel(handle, kTagSend);
  close(handle->fd);
  IncLane(stats_.retired, worker_);
  UringFinishCqe(handle);  // drop the registration reference; may free
}

#endif  // SKYLOFT_IO_URING

// ---------------------------------------------------------------------------
// Backend-neutral engine.
// ---------------------------------------------------------------------------

IoEngine::IoEngine(int worker, const IoEngineOptions& options, const IoEngineStats& stats)
    : worker_(worker), options_(options), stats_(stats) {
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  SKYLOFT_CHECK(epoll_fd_ >= 0) << "epoll_create1 failed: " << std::strerror(errno);
  event_buf_.resize(static_cast<std::size_t>(kMaxEvents) * sizeof(epoll_event));
  if constexpr (kIoUringBuild) {
    if (!UringInit()) {
      IncLane(stats_.uring_fallbacks, worker_);
    }
  }
}

IoEngine::~IoEngine() {
  // Drain the retire pipeline, then close out whatever the application left
  // registered (a server torn down mid-connection). The stall list holds
  // references to handles that are also in handles_; just drop the list —
  // the sweep below frees them.
  stalled_.clear();
  FreeRetired();
  FreeRetired();
  for (IoHandle* handle : handles_) {
    if (!handle->closed.load(std::memory_order_relaxed)) {
      close(handle->fd);
    }
    FreeCompletionResources(handle);
    delete handle;
  }
  handles_.clear();
  if constexpr (kIoUringBuild) {
    UringShutdown();
  }
  if (epoll_fd_ >= 0) {
    close(epoll_fd_);
  }
}

void IoEngine::LockHandles() {
  SpinBackoff backoff;
  while (handles_spin_.test_and_set(std::memory_order_acquire)) {
    backoff.Pause();
  }
}

void IoEngine::UnlockHandles() { handles_spin_.clear(std::memory_order_release); }

void IoEngine::TrackHandle(IoHandle* handle) {
  LockHandles();
  handles_.push_back(handle);
  UnlockHandles();
}

void IoEngine::UntrackHandle(IoHandle* handle) {
  LockHandles();
  for (std::size_t i = 0; i < handles_.size(); i++) {
    if (handles_[i] == handle) {
      handles_[i] = handles_.back();
      handles_.pop_back();
      break;
    }
  }
  UnlockHandles();
}

IoHandle* IoEngine::Register(int fd, IoRegisterMode mode) {
  const int fl = fcntl(fd, F_GETFL, 0);
  if (fl < 0 || fcntl(fd, F_SETFL, fl | O_NONBLOCK) < 0) {
    return nullptr;
  }
  auto* handle = new IoHandle;
  handle->fd = fd;
  handle->engine = this;
  handle->mode = mode;
  if (mode != IoRegisterMode::kReadiness) {
    handle->cs = new IoCompletionState;
  }
  bool ok = false;
  bool on_ring = false;
  if constexpr (kIoUringBuild) {
    if (uring_ != nullptr && mode != IoRegisterMode::kReadiness) {
      on_ring = true;
      ok = ArmCompletion(handle);
    }
  }
  if (!on_ring) {
    if (mode == IoRegisterMode::kStream || mode == IoRegisterMode::kDatagram) {
      handle->cs->rd_buf = std::make_unique_for_overwrite<char[]>(kReadBufSize);
    }
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET;
    ev.data.ptr = handle;
    ok = epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0;
  }
  if (!ok) {
    delete handle->cs;
    delete handle;
    return nullptr;
  }
  TrackHandle(handle);
  IncLane(stats_.registered, worker_);
  return handle;
}

void IoEngine::Deregister(IoHandle* handle) {
  SKYLOFT_CHECK(handle != nullptr && handle->engine == this);
  if constexpr (kIoUringBuild) {
    if (uring_ != nullptr && handle->mode != IoRegisterMode::kReadiness) {
      UringDeregister(handle);  // the ring owns ops for it: CQE-counted teardown
      return;
    }
  }
  bool was_closed;
  if (IoCompletionState* cs = handle->cs; cs != nullptr) {
    // Under the queue lock: an EPOLLOUT continuation re-checks `closed` there
    // before it writes, so it can never write to the fd number after the
    // close below (when it may already name another socket).
    QLock(cs);
    was_closed = handle->closed.exchange(true, std::memory_order_acq_rel);
    QUnlock(cs);
  } else {
    was_closed = handle->closed.exchange(true, std::memory_order_acq_rel);
  }
  SKYLOFT_CHECK(!was_closed) << "double Deregister of fd " << handle->fd;
  epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, handle->fd, nullptr);
  close(handle->fd);
  // Two-phase retire (list -> graveyard -> free) so an event batch fetched
  // by a concurrent epoll_wait on the home worker can never outlive the
  // handle it points at.
  IoHandle* head = retired_head_.load(std::memory_order_relaxed);
  do {
    handle->retire_next = head;
  } while (!retired_head_.compare_exchange_weak(head, handle, std::memory_order_release,
                                                std::memory_order_relaxed));
  IncLane(stats_.retired, worker_);
}

void IoEngine::FreeRetired() {
  for (IoHandle* handle : retire_graveyard_) {
    UntrackHandle(handle);
    FreeCompletionResources(handle);
    delete handle;
  }
  retire_graveyard_.clear();
  IoHandle* head = retired_head_.exchange(nullptr, std::memory_order_acquire);
  while (head != nullptr) {
    IoHandle* next = head->retire_next;
    retire_graveyard_.push_back(head);
    head = next;
  }
}

void IoEngine::DeliverReady(IoHandle* handle, unsigned bits) {
  if (bits == 0 || handle->closed.load(std::memory_order_acquire)) {
    return;
  }
  handle->ready.fetch_or(bits, std::memory_order_acq_rel);
  if (bits & (kIoReadable | kIoHup | kIoError)) {
    UThread* waiter = handle->reader.exchange(nullptr, std::memory_order_acq_rel);
    if (waiter != nullptr) {
      Runtime::Unpark(waiter);
      IncLane(stats_.wakeups, worker_);
    }
  }
  if (bits & (kIoWritable | kIoHup | kIoError)) {
    UThread* waiter = handle->writer.exchange(nullptr, std::memory_order_acq_rel);
    if (waiter != nullptr) {
      Runtime::Unpark(waiter);
      IncLane(stats_.wakeups, worker_);
    }
  }
}

int IoEngine::EpollPoll() {
  auto* events = reinterpret_cast<epoll_event*>(event_buf_.data());
  // This epoll_wait only drains already-pending events: the scheduler loop
  // calls it between uthread switches precisely because it cannot block.
  // skylint:allow(blocking-call-on-worker) -- timeout 0 never sleeps
  const int n = epoll_wait(epoll_fd_, events, kMaxEvents, 0);
  if (n <= 0) {
    return 0;
  }
  for (int i = 0; i < n; i++) {
    unsigned bits = 0;
    const unsigned ev = events[i].events;
    if (ev & (EPOLLIN | EPOLLRDHUP)) {
      bits |= kIoReadable;
    }
    if (ev & EPOLLOUT) {
      bits |= kIoWritable;
    }
    if (ev & EPOLLHUP) {
      bits |= kIoHup;
    }
    if (ev & EPOLLERR) {
      bits |= kIoError;
    }
    auto* handle = static_cast<IoHandle*>(events[i].data.ptr);
    if ((ev & (EPOLLOUT | EPOLLERR)) != 0 && handle->mode == IoRegisterMode::kStream) {
      // kIoWritable on a stream means "send queue drained", not "socket
      // writable": the continuation decides which it is.
      bits = (bits & ~kIoWritable) | EpollContinueSend(handle);
    }
    DeliverReady(handle, bits);
  }
  return n;
}

int IoEngine::Poll() {
  FreeRetired();
  int n;
  if constexpr (kIoUringBuild) {
    n = uring_ != nullptr ? UringPoll() : EpollPoll();
  } else {
    n = EpollPoll();
  }
  if (n > 0) {
    IncLane(stats_.polls, worker_);
    IncLane(stats_.events, worker_, static_cast<std::uint64_t>(n));
  }
  return n;
}

void IoEngine::FlushSubmissions() {
  if constexpr (kIoUringBuild) {
    if (uring_ != nullptr) {
      UringSubmit();
    }
  }
}

void IoEngine::RelatchReadable(IoHandle* handle) {
  handle->ready.fetch_or(kIoReadable, std::memory_order_acq_rel);
  UThread* waiter = handle->reader.exchange(nullptr, std::memory_order_acq_rel);
  if (waiter != nullptr) {
    Runtime::Unpark(waiter);
  }
}

// ---------------------------------------------------------------------------
// Completion-shaped data path. On an io_uring engine the home engine's CQE
// handlers fill the per-handle queues drained here; on epoll each call makes
// its syscall in the caller's context (any worker) and counts it.
// ---------------------------------------------------------------------------

bool IoEngine::PopRecv(IoHandle* handle, IoRecvSlice* slice) {
  IoCompletionState* cs = handle->cs;
  if (uring_ != nullptr) {
    QLock(cs);
    const bool popped = !cs->rx.empty();
    if (popped) {
      *slice = cs->rx.front();
      cs->rx.pop_front();
    }
    QUnlock(cs);
    return popped;
  }
  while (!cs->rd_done) {
    // skylint:allow(blocking-call-on-worker) -- O_NONBLOCK fd; the caller parks in WaitForReadable once this returns false
    const ssize_t n = read(handle->fd, cs->rd_buf.get(), kReadBufSize);
    IncLane(stats_.sys_read, worker_);
    if (n > 0) {
      *slice = IoRecvSlice{cs->rd_buf.get(), static_cast<std::uint32_t>(n), 0};
      return true;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return false;
    }
    // The same sticky bits the recv CQE latches.
    cs->rd_done = true;
    DeliverReady(handle, n == 0 ? kIoHup : kIoError);
  }
  return false;
}

bool IoEngine::PopDatagram(IoHandle* handle, IoDatagram* datagram) {
  if constexpr (kIoUringBuild) {
    if (uring_ != nullptr) {
      return UringPopDatagram(handle, datagram);
    }
  }
  IoCompletionState* cs = handle->cs;
  while (true) {
    socklen_t peer_len = sizeof(datagram->peer);
    // skylint:allow(blocking-call-on-worker) -- O_NONBLOCK fd; the caller parks in WaitForReadable once this returns false
    const ssize_t n = recvfrom(handle->fd, cs->rd_buf.get(), kReadBufSize, 0,
                               reinterpret_cast<sockaddr*>(&datagram->peer), &peer_len);
    IncLane(stats_.sys_read, worker_);
    if (n >= 0) {
      datagram->data = cs->rd_buf.get();
      datagram->len = static_cast<std::uint32_t>(n);
      datagram->buf_id = 0;
      return true;
    }
    if (errno != EINTR) {
      return false;
    }
  }
}

void IoEngine::RecycleBuffer(std::uint16_t buf_id) {
  if constexpr (kIoUringBuild) {
    if (uring_ != nullptr) {
      RecycleToRing(buf_id);
    }
  }
}

int IoEngine::TakeAccepted(IoHandle* handle) {
  IoCompletionState* cs = handle->cs;
  if (uring_ != nullptr) {
    int fd = -1;
    QLock(cs);
    if (!cs->accepted.empty()) {
      fd = cs->accepted.front();
      cs->accepted.pop_front();
    }
    QUnlock(cs);
    return fd;
  }
  while (true) {
    // skylint:allow(blocking-call-on-worker) -- O_NONBLOCK listener; the caller parks in WaitForReadable once this returns -1
    const int fd = accept4(handle->fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    IncLane(stats_.sys_accept, worker_);
    // EAGAIN ends the batch; a connection reset while queued does not.
    if (fd >= 0 || (errno != EINTR && errno != ECONNABORTED)) {
      return fd;
    }
  }
}

std::size_t IoEngine::SendEnqueue(IoHandle* handle, std::string frame) {
  SKYLOFT_CHECK(handle->mode == IoRegisterMode::kStream) << "SendEnqueue on a non-stream handle";
  if (frame.empty()) {
    return SendQueuedBytes(handle);
  }
  IoCompletionState* cs = handle->cs;
  unsigned error = 0;
  std::size_t queued = 0;
  QLock(cs);
  if (!handle->closed.load(std::memory_order_acquire)) {
    cs->tx_bytes += frame.size();
    queued = cs->tx_bytes;
    cs->tx.push_back(std::move(frame));
    if (!cs->tx_inflight) {
      // Only an error is news to the caller: it is the single writer, and
      // reads the drained state from SendQueuedBytes.
      error = StartSendLocked(handle) & kIoError;
    }
  }
  QUnlock(cs);
  if (error != 0) {
    // A dropped queue must wake a writer parked on it and fail the
    // connection instead of letting it wait forever.
    DeliverReady(handle, error);
    queued = 0;
  }
  return queued;
}

unsigned IoEngine::StartSendLocked(IoHandle* handle) {
  if constexpr (kIoUringBuild) {
    if (uring_ != nullptr) {
      IoCompletionState* cs = handle->cs;
      // Count the send's expected CQE before the kernel can post it. The
      // handle cannot race to its free point here: it is not closed and we
      // are its (single) writer.
      handle->pending_cqes.fetch_add(1, std::memory_order_acq_rel);
      if (ArmSendLocked(handle)) {
        cs->tx_inflight = true;
        return 0;
      }
      handle->pending_cqes.fetch_sub(1, std::memory_order_acq_rel);
      DropSendQueue(cs);
      return kIoError;
    }
  }
  return EpollSendLocked(handle);
}

unsigned IoEngine::EpollSendLocked(IoHandle* handle) {
  IoCompletionState* cs = handle->cs;
  while (!cs->tx.empty()) {
    const std::size_t batch = BuildSendIov(cs);
    // sendmsg, not writev: MSG_NOSIGNAL keeps a reset peer from raising
    // SIGPIPE in the serving process.
    // skylint:allow(blocking-call-on-worker) -- O_NONBLOCK socket; what it refuses waits for the EPOLLOUT continuation
    const ssize_t n = sendmsg(handle->fd, &cs->tx_msg, MSG_NOSIGNAL);
    IncLane(stats_.sys_write, worker_);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
      DropSendQueue(cs);
      return kIoError;
    }
    // A short write set the socket's no-space flag, so like EAGAIN it
    // guarantees an EPOLLOUT edge once the peer makes room.
    if (n < 0 || (!ConsumeSent(cs, static_cast<std::size_t>(n)) &&
                  static_cast<std::size_t>(n) < batch)) {
      cs->tx_inflight = true;
      return 0;
    }
  }
  cs->tx_inflight = false;
  return kIoWritable;
}

unsigned IoEngine::EpollContinueSend(IoHandle* handle) {
  IoCompletionState* cs = handle->cs;
  unsigned latch = 0;
  QLock(cs);
  if (!handle->closed.load(std::memory_order_acquire)) {
    latch = cs->tx.empty() ? kIoWritable : EpollSendLocked(handle);
  }
  QUnlock(cs);
  return latch;
}

std::size_t IoEngine::SendQueuedBytes(IoHandle* handle) {
  IoCompletionState* cs = handle->cs;
  if (cs == nullptr) {
    return 0;
  }
  QLock(cs);
  const std::size_t n = cs->tx_bytes;
  QUnlock(cs);
  return n;
}

bool IoEngine::SendDatagram(IoHandle* handle, const sockaddr_in& to, std::string frame) {
  SKYLOFT_CHECK(handle->mode == IoRegisterMode::kDatagram)
      << "SendDatagram on a non-datagram handle";
  if (handle->closed.load(std::memory_order_acquire)) {
    return false;
  }
  if constexpr (kIoUringBuild) {
    if (uring_ != nullptr) {
      return UringSendDatagram(handle, to, std::move(frame));
    }
  }
  // skylint:allow(blocking-call-on-worker) -- O_NONBLOCK socket; a full buffer drops the reply (UDP semantics)
  const ssize_t n = sendto(handle->fd, frame.data(), frame.size(), MSG_NOSIGNAL,
                           reinterpret_cast<const sockaddr*>(&to), sizeof(to));
  IncLane(stats_.sys_write, worker_);
  return n >= 0;
}

void IoEngine::FreeCompletionResources(IoHandle* handle) {
  IoCompletionState* cs = handle->cs;
  if (cs == nullptr) {
    return;
  }
  // The free point: nothing references the handle any more, so queued-but-
  // unconsumed resources return to their owners — buffers to the ring,
  // never-taken accepted fds to the kernel.
  for (const IoRecvSlice& seg : cs->rx) {
    RecycleBuffer(seg.buf_id);
  }
  for (const int fd : cs->accepted) {
    close(fd);
  }
  if constexpr (kIoUringBuild) {
    if (cs->fixed_slot >= 0) {
      ReleaseFixedSlot(cs->fixed_slot);
    }
  }
  delete cs;
  handle->cs = nullptr;
}

void IoEngine::DumpDebug(std::FILE* out) {
  std::fprintf(out, "engine[%d] backend=%s\n", worker_,
               using_io_uring() ? "io_uring" : "epoll");
#ifdef SKYLOFT_IO_URING
  if (uring_ != nullptr) {
    UringState* s = uring_;
    std::fprintf(out,
                 "  sq head=%u tail=%u to_submit=%u flags=%#x cq head=%u tail=%u\n",
                 __atomic_load_n(s->sq_head, __ATOMIC_ACQUIRE),
                 __atomic_load_n(s->sq_tail, __ATOMIC_ACQUIRE),
                 s->to_submit.load(std::memory_order_relaxed),
                 __atomic_load_n(s->sq_flags, __ATOMIC_ACQUIRE),
                 __atomic_load_n(s->cq_head, __ATOMIC_ACQUIRE),
                 __atomic_load_n(s->cq_tail, __ATOMIC_ACQUIRE));
    std::fprintf(out, "  buf entries=%u tail=%u recycled=%llu stalled=%zu\n", s->buf_entries,
                 static_cast<unsigned>(s->buf_tail),
                 static_cast<unsigned long long>(s->buf_recycled.load(std::memory_order_acquire)),
                 stalled_.size());
  }
#endif
  LockHandles();
  for (IoHandle* handle : handles_) {
    std::fprintf(out,
                 "  fd=%d mode=%d ready=%#x closed=%d armed=%d pending=%d "
                 "reader=%d writer=%d",
                 handle->fd, static_cast<int>(handle->mode),
                 handle->ready.load(std::memory_order_acquire),
                 handle->closed.load(std::memory_order_acquire) ? 1 : 0,
                 handle->main_op_armed.load(std::memory_order_acquire) ? 1 : 0,
                 handle->pending_cqes.load(std::memory_order_acquire),
                 handle->reader.load(std::memory_order_acquire) != nullptr ? 1 : 0,
                 handle->writer.load(std::memory_order_acquire) != nullptr ? 1 : 0);
    if (handle->cs != nullptr) {
      IoCompletionState* cs = handle->cs;
      QLock(cs);
      std::fprintf(out, " rx=%zu acc=%zu tx=%zu tx_bytes=%zu tx_off=%zu inflight=%d",
                   cs->rx.size(), cs->accepted.size(), cs->tx.size(), cs->tx_bytes,
                   cs->tx_off, cs->tx_inflight ? 1 : 0);
      QUnlock(cs);
    }
    std::fprintf(out, "\n");
  }
  UnlockHandles();
  std::fflush(out);
}

void IoEngine::Interrupt(IoHandle* handle) {
  handle->ready.fetch_or(kIoError, std::memory_order_acq_rel);
  UThread* reader = handle->reader.exchange(nullptr, std::memory_order_acq_rel);
  if (reader != nullptr) {
    Runtime::Unpark(reader);
  }
  UThread* writer = handle->writer.exchange(nullptr, std::memory_order_acq_rel);
  if (writer != nullptr) {
    Runtime::Unpark(writer);
  }
}

}  // namespace skyloft
