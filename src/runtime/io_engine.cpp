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

namespace skyloft {

namespace {

// Engine sizing: the epoll events drained per Poll, the iovec capacity of
// one stream send (frames folded into one sendmsg), and the per-handle read
// buffer the engine receives into.
constexpr int kMaxEvents = 256;
constexpr int kMaxSendIovs = 16;
constexpr std::size_t kReadBufSize = 4096;

void IncLane(ShardedCounter* c, int lane, std::uint64_t n = 1) {
  if (c != nullptr) {
    c->Inc(lane, n);
  }
}

}  // namespace

// Per-handle state of a completion-mode handle. The send queue is shared
// between the home engine (continuing a send on EPOLLOUT) and the handler
// uthread on whichever worker stole it; q_spin (lock class io_handle_q)
// guards it. Single-writer send contract: only the one handler uthread
// enqueues, so tx ordering needs no further synchronization beyond the
// spinlock.
struct IoCompletionState {
  std::atomic_flag q_spin = ATOMIC_FLAG_INIT;
  // Send queue. tx_off = bytes of tx.front() already sent; tx_bytes = total
  // unsent bytes; tx_inflight: the socket refused part of the queue and
  // EPOLLOUT will write the rest.
  std::deque<std::string> tx;
  std::size_t tx_off = 0;
  std::size_t tx_bytes = 0;
  bool tx_inflight = false;
  iovec tx_iov[kMaxSendIovs];
  msghdr tx_msg{};
  // The kStream/kDatagram read buffer (kReadBufSize bytes), and whether a
  // stream read already hit end of stream or an error (later pops return
  // false without another read()). Reader-only, like the buffer.
  std::unique_ptr<char[]> rd_buf;
  bool rd_done = false;
};

namespace {

// Send-queue steps; the caller holds the queue lock.

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

void FreeHandle(IoHandle* handle) {
  delete handle->cs;
  delete handle;
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

IoEngine::IoEngine(int worker, const IoEngineStats& stats) : worker_(worker), stats_(stats) {
  epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  SKYLOFT_CHECK(epoll_fd_ >= 0) << "epoll_create1 failed: " << std::strerror(errno);
  event_buf_.resize(static_cast<std::size_t>(kMaxEvents) * sizeof(epoll_event));
}

IoEngine::~IoEngine() {
  // Drain the retire pipeline, then close out whatever the application left
  // registered (a server torn down mid-connection).
  FreeRetired();
  FreeRetired();
  for (IoHandle* handle : handles_) {
    if (!handle->closed.load(std::memory_order_relaxed)) {
      close(handle->fd);
    }
    FreeHandle(handle);
  }
  handles_.clear();
  close(epoll_fd_);
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
  if (mode == IoRegisterMode::kStream || mode == IoRegisterMode::kDatagram) {
    handle->cs->rd_buf = std::make_unique_for_overwrite<char[]>(kReadBufSize);
  }
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET;
  ev.data.ptr = handle;
  if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
    FreeHandle(handle);
    return nullptr;
  }
  TrackHandle(handle);
  IncLane(stats_.registered, worker_);
  return handle;
}

void IoEngine::Deregister(IoHandle* handle) {
  SKYLOFT_CHECK(handle != nullptr && handle->engine == this);
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
    FreeHandle(handle);
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

int IoEngine::Poll() {
  FreeRetired();
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
      bits = (bits & ~kIoWritable) | ContinueSend(handle);
    }
    DeliverReady(handle, bits);
  }
  IncLane(stats_.polls, worker_);
  IncLane(stats_.events, worker_, static_cast<std::uint64_t>(n));
  return n;
}

void IoEngine::RelatchReadable(IoHandle* handle) {
  handle->ready.fetch_or(kIoReadable, std::memory_order_acq_rel);
  UThread* waiter = handle->reader.exchange(nullptr, std::memory_order_acq_rel);
  if (waiter != nullptr) {
    Runtime::Unpark(waiter);
  }
}

// ---------------------------------------------------------------------------
// Completion-shaped data path: each call makes its syscall in the caller's
// context (any worker) and counts it.
// ---------------------------------------------------------------------------

bool IoEngine::PopRecv(IoHandle* handle, IoRecvSlice* slice) {
  IoCompletionState* cs = handle->cs;
  while (!cs->rd_done) {
    // skylint:allow(blocking-call-on-worker) -- O_NONBLOCK fd; the caller parks in WaitForReadable once this returns false
    const ssize_t n = read(handle->fd, cs->rd_buf.get(), kReadBufSize);
    IncLane(stats_.sys_read, worker_);
    if (n > 0) {
      *slice = IoRecvSlice{cs->rd_buf.get(), static_cast<std::uint32_t>(n)};
      return true;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return false;
    }
    // End of stream or a receive error: sticky, so stop reading.
    cs->rd_done = true;
    DeliverReady(handle, n == 0 ? kIoHup : kIoError);
  }
  return false;
}

bool IoEngine::PopDatagram(IoHandle* handle, IoDatagram* datagram) {
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
      return true;
    }
    if (errno != EINTR) {
      return false;
    }
  }
}

int IoEngine::TakeAccepted(IoHandle* handle) {
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
      error = SendLocked(handle) & kIoError;
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

unsigned IoEngine::SendLocked(IoHandle* handle) {
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

unsigned IoEngine::ContinueSend(IoHandle* handle) {
  IoCompletionState* cs = handle->cs;
  unsigned latch = 0;
  QLock(cs);
  if (!handle->closed.load(std::memory_order_acquire)) {
    latch = cs->tx.empty() ? kIoWritable : SendLocked(handle);
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
  // skylint:allow(blocking-call-on-worker) -- O_NONBLOCK socket; a full buffer drops the reply (UDP semantics)
  const ssize_t n = sendto(handle->fd, frame.data(), frame.size(), MSG_NOSIGNAL,
                           reinterpret_cast<const sockaddr*>(&to), sizeof(to));
  IncLane(stats_.sys_write, worker_);
  return n >= 0;
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
