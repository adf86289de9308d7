#include "src/apps/kv_server_net.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "src/base/logging.h"
#include "src/base/time.h"
#include "src/net/frame.h"
#include "src/runtime/io_engine.h"
#include "src/runtime/sync.h"

namespace skyloft {

namespace {

unsigned RoundUpPow2(unsigned v) {
  unsigned p = 1;
  while (p < v) {
    p <<= 1;
  }
  return p;
}

std::uint64_t KeyHash(const std::string& key) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (const char c : key) {
    h = (h ^ static_cast<unsigned char>(c)) * 1099511628211ull;
  }
  return h;
}

// Creates a bound nonblocking socket on 127.0.0.1:`port` with SO_REUSEPORT
// (the kernel shards incoming connections/datagrams across the per-worker
// sockets of the group). Returns -1 on failure.
int BoundSocket(int type, std::uint16_t port) {
  const int fd = socket(AF_INET, type | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return -1;
  }
  const int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) != 0) {
    close(fd);
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

std::uint16_t BoundPort(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return 0;
  }
  return ntohs(addr.sin_port);
}

constexpr int kListenBacklog = 4096;
// Accepts and datagrams taken per wakeup before the loop relatches
// readability and yields, so one busy socket cannot starve the worker.
constexpr int kAcceptBatch = 64;
constexpr int kUdpBatch = 64;

// Send backpressure: above this many queued-but-unsent bytes the handler
// parks until the engine drains its send queue.
constexpr std::size_t kSendHighWater = 256 * 1024;

// Index keys a SCAN copies per hold of the index lock.
constexpr std::size_t kScanChunk = 64;

// Preloaded pairs whose table misses one PreloadBatch overlaps.
constexpr std::size_t kPreloadBatch = 16;

// Calls visit(i) for `i`, then for every i' < n whose decimal digits extend
// i's, in the order of their decimal strings.
template <typename Visit>
void VisitDecimalSubtree(std::uint64_t i, std::uint64_t n, const Visit& visit) {
  visit(i);
  for (std::uint64_t child = i * 10; child < i * 10 + 10 && child < n; child++) {
    VisitDecimalSubtree(child, n, visit);
  }
}

// Calls visit(i) for every i in [0, n) in the order of i's decimal strings
// (0, 1, 10, 100, ..., 101, ..., 11, ..., 2, ...): the preorder of the digit
// trie, so "user<i>" keys come out ascending.
template <typename Visit>
void ForEachInDecimalOrder(std::uint64_t n, const Visit& visit) {
  if (n > 0) {
    visit(0);  // no other number starts with the digit 0
  }
  for (std::uint64_t d = 1; d < 10 && d < n; d++) {
    VisitDecimalSubtree(d, n, visit);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// KvStripedStore
// ---------------------------------------------------------------------------

KvStripedStore::KvStripedStore(int workers) {
  const int stripes =
      static_cast<int>(RoundUpPow2(static_cast<unsigned>(std::max(8, 4 * workers))));
  for (int i = 0; i < stripes; i++) {
    stripes_.push_back(std::make_unique<Stripe>());
  }
  const int lanes = static_cast<int>(RoundUpPow2(static_cast<unsigned>(std::max(4, workers))));
  for (int i = 0; i < lanes; i++) {
    lanes_.push_back(std::make_unique<LatencyLane>());
  }
}

void KvStripedStore::SpinLock(std::atomic_flag& flag) {
  SpinBackoff backoff;
  while (flag.test_and_set(std::memory_order_acquire)) {
    backoff.Pause();
  }
}

void KvStripedStore::SpinUnlock(std::atomic_flag& flag) {
  flag.clear(std::memory_order_release);
}

void KvStripedStore::LockIndex() { SpinLock(index_.spin); }
void KvStripedStore::UnlockIndex() { SpinUnlock(index_.spin); }
void KvStripedStore::LockStripe(Stripe& s) { SpinLock(s.spin); }
void KvStripedStore::UnlockStripe(Stripe& s) { SpinUnlock(s.spin); }
void KvStripedStore::LockLane(LatencyLane& l) { SpinLock(l.spin); }
void KvStripedStore::UnlockLane(LatencyLane& l) { SpinUnlock(l.spin); }

KvStripedStore::Stripe& KvStripedStore::StripeOf(const std::string& key) {
  return *stripes_[KeyHash(key) & (stripes_.size() - 1)];
}

void KvStripedStore::Reserve(std::size_t keys) {
  // Keys hash evenly over the stripes; 3% covers the imbalance of a large
  // preload, and a stripe that still overflows just grows.
  const std::size_t share = keys / stripes_.size();
  for (auto& stripe : stripes_) {
    stripe->store.Reserve(share + share * 3 / 100);
  }
}

void KvStripedStore::Preload(const std::string& key, const std::string& value) {
  if (StripeOf(key).store.Set(key, value)) {
    index_.keys.Insert(key);
  }
}

void KvStripedStore::PreloadBatch(std::span<const std::pair<std::string, std::string>> pairs) {
  for (const auto& [key, value] : pairs) {
    StripeOf(key).store.Prefetch(key);
  }
  for (const auto& [key, value] : pairs) {
    Preload(key, value);
  }
}

std::string KvStripedStore::Serve(const std::string& request, std::uint64_t lane) {
  const std::int64_t t0 = HostNowNs();
  KvOpKind kind = KvOpKind::kError;
  std::string reply;

  const auto sp1 = request.find(' ');
  const std::string op = request.substr(0, sp1);
  if (op == "GET" && sp1 != std::string::npos) {
    kind = KvOpKind::kGet;
    const std::string key = request.substr(sp1 + 1);
    Stripe& stripe = StripeOf(key);
    // Spin sections are preemption-guarded: a signal-timer preemption while
    // holding the stripe would leave every other worker spinning on it for a
    // full scheduling round.
    Runtime::PreemptGuard guard;
    LockStripe(stripe);
    auto value = stripe.store.Get(key);
    UnlockStripe(stripe);
    reply = value ? "VALUE " + *value : "NOT_FOUND";
  } else if (op == "SET" && sp1 != std::string::npos) {
    const auto sp2 = request.find(' ', sp1 + 1);
    if (sp2 != std::string::npos) {
      kind = KvOpKind::kSet;
      const std::string key = request.substr(sp1 + 1, sp2 - sp1 - 1);
      Stripe& stripe = StripeOf(key);
      Runtime::PreemptGuard guard;
      LockStripe(stripe);
      const bool added = stripe.store.Set(key, request.substr(sp2 + 1));
      UnlockStripe(stripe);
      if (added) {  // overwrites leave the index alone
        LockIndex();
        index_.keys.Insert(key);
        UnlockIndex();
      }
      reply = "STORED";
    }
  } else if (op == "SCAN" && sp1 != std::string::npos) {
    const auto sp2 = request.find(' ', sp1 + 1);
    if (sp2 != std::string::npos) {
      kind = KvOpKind::kScan;
      const std::string start = request.substr(sp1 + 1, sp2 - sp1 - 1);
      std::size_t limit = 0;
      const std::string limit_str = request.substr(sp2 + 1);
      for (const char c : limit_str) {
        if (c < '0' || c > '9') {
          limit = 0;
          break;
        }
        limit = limit * 10 + static_cast<std::size_t>(c - '0');
        if (limit > 4096) {
          limit = 4096;  // bound the reply; SCAN is the heavy tail op already
          break;
        }
      }
      if (limit == 0) {
        kind = KvOpKind::kError;
      } else {
        // Copy the first `limit` keys out of the index, at most kScanChunk
        // per hold so a long SCAN stays preemptible between chunks; each
        // chunk resumes after the last key copied. Then read each value
        // under its stripe's lock, one lock at a time. Skip a vanished key.
        std::vector<std::string> keys;
        keys.reserve(limit);
        bool more = true;
        while (more && keys.size() < limit) {
          const std::size_t chunk_end = std::min(limit, keys.size() + kScanChunk);
          Runtime::PreemptGuard guard;
          LockIndex();
          auto it = keys.empty() ? index_.keys.LowerBound(start)
                                 : index_.keys.UpperBound(keys.back());
          for (; it != index_.keys.end() && keys.size() < chunk_end; ++it) {
            keys.emplace_back(*it);
          }
          more = it != index_.keys.end();
          UnlockIndex();
        }
        for (const std::string& key : keys) {
          Stripe& stripe = StripeOf(key);
          Runtime::PreemptGuard guard;
          LockStripe(stripe);
          auto value = stripe.store.Get(key);
          UnlockStripe(stripe);
          if (value) {
            reply += key + "=" + *value + ";";
          }
        }
        if (reply.empty()) {
          reply = "EMPTY";
        }
      }
    }
  }
  if (kind == KvOpKind::kError) {
    reply = "ERROR";
  }

  const std::int64_t t1 = HostNowNs();
  LatencyLane& lat = *lanes_[lane & (lanes_.size() - 1)];
  {
    Runtime::PreemptGuard guard;
    LockLane(lat);
    lat.hist[static_cast<int>(kind)].Record(t1 - t0);
    UnlockLane(lat);
  }
  return reply;
}

void KvStripedStore::MergeLatencies() {
  for (int k = 0; k < 4; k++) {
    merged_[k].Reset();
    for (auto& lane : lanes_) {
      merged_[k].Merge(lane->hist[k]);
    }
  }
}

// ---------------------------------------------------------------------------
// KvServerNet
// ---------------------------------------------------------------------------

// Per-worker serving slice: the SO_REUSEPORT listener + UDP socket and their
// engine handles. The acceptor registers accepted connections with `engine`
// (its home worker's engine) no matter which worker the acceptor uthread
// currently runs on — sharding is by listener, not by scheduler placement.
struct KvServerNet::Listener {
  int worker = 0;
  IoEngine* engine = nullptr;
  IoHandle* tcp = nullptr;
  IoHandle* udp = nullptr;
};

KvServerNet::KvServerNet(Runtime* rt, const KvServerNetOptions& options)
    : rt_(rt), options_(options), store_(rt->workers()) {
  tcp_conns_ = metrics_.AddCounter("tcp_connections");
  tcp_requests_ = metrics_.AddCounter("tcp_requests");
  udp_requests_ = metrics_.AddCounter("udp_requests");
  frame_errors_ = metrics_.AddCounter("frame_errors");
  peer_resets_ = metrics_.AddCounter("peer_resets");
  metrics_.LinkValue("open_connections",
                     [this] { return open_conns_.load(std::memory_order_relaxed); });
  metrics_.LinkHistogram("get_ns", &store_.latency(KvOpKind::kGet));
  metrics_.LinkHistogram("set_ns", &store_.latency(KvOpKind::kSet));
  metrics_.LinkHistogram("scan_ns", &store_.latency(KvOpKind::kScan));
}

KvServerNet::~KvServerNet() = default;

void KvServerNet::Start() {
  SKYLOFT_CHECK(listeners_.empty()) << "Start() called twice";
  const std::size_t keys = static_cast<std::size_t>(std::max(0, options_.preload_keys));
  store_.Reserve(keys);
  // In key order every index insert is an append.
  std::vector<std::pair<std::string, std::string>> batch;
  batch.reserve(kPreloadBatch);
  ForEachInDecimalOrder(keys, [&](std::uint64_t i) {
    batch.emplace_back("user" + std::to_string(i), "profile-" + std::to_string(i));
    if (batch.size() == kPreloadBatch) {
      store_.PreloadBatch(batch);
      batch.clear();
    }
  });
  store_.PreloadBatch(batch);
  for (int w = 0; w < rt_->workers(); w++) {
    IoEngine* engine = rt_->io_engine(w);
    SKYLOFT_CHECK(engine != nullptr) << "KvServerNet needs RuntimeOptions::io_engine";
    auto listener = std::make_unique<Listener>();
    listener->worker = w;
    listener->engine = engine;
    const int tcp_fd = BoundSocket(SOCK_STREAM, tcp_port_ != 0 ? tcp_port_ : options_.tcp_port);
    SKYLOFT_CHECK(tcp_fd >= 0) << "tcp listener bind failed: " << std::strerror(errno);
    SKYLOFT_CHECK(listen(tcp_fd, kListenBacklog) == 0);
    if (tcp_port_ == 0) {
      tcp_port_ = BoundPort(tcp_fd);  // first bind fixes the group's port
    }
    listener->tcp = engine->Register(tcp_fd, IoRegisterMode::kListener);
    SKYLOFT_CHECK(listener->tcp != nullptr);
    if (options_.udp) {
      const int fd = BoundSocket(SOCK_DGRAM, udp_port_ != 0 ? udp_port_ : options_.udp_port);
      SKYLOFT_CHECK(fd >= 0) << "udp bind failed: " << std::strerror(errno);
      if (udp_port_ == 0) {
        udp_port_ = BoundPort(fd);
      }
      listener->udp = engine->Register(fd, IoRegisterMode::kDatagram);
      SKYLOFT_CHECK(listener->udp != nullptr);
    }
    listeners_.push_back(std::move(listener));
  }
  for (auto& listener : listeners_) {
    Listener* l = listener.get();
    live_server_uthreads_.fetch_add(1, std::memory_order_acq_rel);
    Runtime::Spawn([this, l] { AcceptLoop(l); });
    if (l->udp != nullptr) {
      live_server_uthreads_.fetch_add(1, std::memory_order_acq_rel);
      Runtime::Spawn([this, l] { UdpLoop(l); });
    }
  }
}

void KvServerNet::Stop() {
  stop_.store(true, std::memory_order_release);
  for (auto& listener : listeners_) {
    IoEngine::Interrupt(listener->tcp);
    if (listener->udp != nullptr) {
      IoEngine::Interrupt(listener->udp);
    }
  }
  // Interrupt live connection handlers under the registry lock: a handler
  // untracks itself (same lock) before deregistering, so no handle is
  // interrupted after its teardown began.
  {
    Runtime::PreemptGuard guard;
    LockConns();
    for (IoHandle* handle : conns_) {
      IoEngine::Interrupt(handle);
    }
    UnlockConns();
  }
  while (live_server_uthreads_.load(std::memory_order_acquire) > 0) {
    Runtime::Yield();
  }
  // All server uthreads are joined, so nothing can race the listener
  // handles any more — only now are they deregistered. (The loops must not
  // do it themselves: a readiness event racing stop_ could otherwise retire
  // a handle while this function concurrently Interrupts it above.)
  for (auto& listener : listeners_) {
    listener->engine->Deregister(listener->tcp);
    listener->tcp = nullptr;
    if (listener->udp != nullptr) {
      listener->engine->Deregister(listener->udp);
      listener->udp = nullptr;
    }
  }
  store_.MergeLatencies();
}

void KvServerNet::LockConns() {
  SpinBackoff backoff;
  while (conns_spin_.test_and_set(std::memory_order_acquire)) {
    backoff.Pause();
  }
}

void KvServerNet::UnlockConns() { conns_spin_.clear(std::memory_order_release); }

void KvServerNet::TrackConn(IoHandle* handle) {
  Runtime::PreemptGuard guard;
  LockConns();
  conns_.push_back(handle);
  UnlockConns();
}

bool KvServerNet::UntrackConn(IoHandle* handle) {
  Runtime::PreemptGuard guard;
  LockConns();
  bool found = false;
  for (std::size_t i = 0; i < conns_.size(); i++) {
    if (conns_[i] == handle) {
      conns_[i] = conns_.back();
      conns_.pop_back();
      found = true;
      break;
    }
  }
  UnlockConns();
  return found;
}

void KvServerNet::AcceptLoop(Listener* listener) {
  IoEngine* engine = listener->engine;
  while (!stop_.load(std::memory_order_acquire)) {
    const unsigned ready = WaitForReadable(listener->tcp);
    if (stop_.load(std::memory_order_acquire) || (ready & kIoError) != 0) {
      break;
    }
    int accepted = 0;
    int fd;
    while (accepted < kAcceptBatch && (fd = engine->TakeAccepted(listener->tcp)) >= 0) {
      accepted++;
      const int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      IoHandle* conn = engine->Register(fd, IoRegisterMode::kStream);
      if (conn == nullptr) {
        close(fd);
        continue;
      }
      tcp_conns_->Inc();
      open_conns_.fetch_add(1, std::memory_order_relaxed);
      TrackConn(conn);
      live_server_uthreads_.fetch_add(1, std::memory_order_acq_rel);
      Runtime::Spawn([this, conn] { ConnLoop(conn); });
    }
    if (accepted == kAcceptBatch) {
      // Batch limit hit before the queue ran dry: the consumed edge must be
      // restored or the rest of the backlog would wait for the next incoming
      // SYN. Yield so freshly spawned handlers get a turn before we keep
      // accepting.
      IoEngine::RelatchReadable(listener->tcp);
      Runtime::Yield();
    }
  }
  // The listener handle stays registered; Stop() retires it after the join
  // barrier, where no Interrupt can race the teardown.
  live_server_uthreads_.fetch_sub(1, std::memory_order_acq_rel);
}

// One connection: every wakeup pops all received bytes into the decoder,
// serves every complete frame, and queues the batch's replies as one send
// (one sendmsg).
void KvServerNet::ConnLoop(IoHandle* conn) {
  IoEngine* engine = conn->engine;
  const std::uint64_t lane = Runtime::Current()->id;
  FrameDecoder decoder;
  bool reset = false;

  while (true) {
    const unsigned ready = WaitForReadable(conn);
    if (stop_.load(std::memory_order_acquire)) {
      break;
    }
    // kIoError latches on a failed receive or send (ECONNRESET and friends).
    // Bytes that arrived before it are still drained below, but not served.
    bool dead = (ready & kIoError) != 0;
    if (dead) {
      reset = true;
    }
    IoRecvSlice slice;
    while (engine->PopRecv(conn, &slice)) {
      decoder.Feed(slice.data, slice.len);
    }
    std::string out;
    std::string payload;
    while (!dead && decoder.Next(&payload) == FrameDecodeStatus::kFrame) {
      const std::string reply = store_.Serve(payload, lane);
      std::uint8_t hdr[kFrameHeaderSize];
      EncodeFrameHeader(hdr, static_cast<std::uint32_t>(reply.size()));
      out.append(reinterpret_cast<const char*>(hdr), kFrameHeaderSize);
      out += reply;
      tcp_requests_->Inc();
    }
    if (!out.empty() && engine->SendEnqueue(conn, std::move(out)) == 0) {
      reset = true;  // queue refused: the handle errored under us
      dead = true;
    }
    if (decoder.poisoned()) {
      frame_errors_->Inc();
      dead = true;
    }
    // Backpressure: above the high-water mark, park until the engine drains
    // the queue (kIoWritable latch). A stale latch from an earlier drain just
    // re-checks, hence the loop.
    while (!dead && engine->SendQueuedBytes(conn) > kSendHighWater) {
      const unsigned w = WaitForWritable(conn);
      if (stop_.load(std::memory_order_acquire)) {
        dead = true;
      } else if ((w & kIoError) != 0) {
        reset = true;
        dead = true;
      } else if ((w & kIoWritable) == 0) {
        // Sticky kIoHup makes WaitForWritable non-blocking from here on, and
        // the drain we need is finished by our home engine's poll — which
        // never runs if we spin. Yield to it.
        Runtime::Yield();
      }
    }
    if ((ready & kIoHup) != 0 && !dead) {
      // Graceful EOF: every received byte precedes the hangup, so the
      // decoder has everything; finish sending queued replies before
      // closing.
      while (engine->SendQueuedBytes(conn) > 0) {
        const unsigned w = WaitForWritable(conn);
        if (stop_.load(std::memory_order_acquire) || (w & kIoError) != 0) {
          break;
        }
        if ((w & kIoWritable) == 0) {
          Runtime::Yield();  // same sticky-hup spin hazard as above
        }
      }
      break;
    }
    if (dead) {
      break;
    }
  }

  if (reset) {
    peer_resets_->Inc();
  }
  open_conns_.fetch_sub(1, std::memory_order_relaxed);
  // Whether or not Stop() already removed us from the registry (and owns any
  // interrupt), releasing the fd is the handler's job.
  UntrackConn(conn);
  engine->Deregister(conn);
  live_server_uthreads_.fetch_sub(1, std::memory_order_acq_rel);
}

void KvServerNet::UdpLoop(Listener* listener) {
  IoEngine* engine = listener->engine;
  const std::uint64_t lane = Runtime::Current()->id;
  while (!stop_.load(std::memory_order_acquire)) {
    const unsigned ready = WaitForReadable(listener->udp);
    if (stop_.load(std::memory_order_acquire) || (ready & kIoError) != 0) {
      break;
    }
    int handled = 0;
    IoDatagram dgram;
    while (handled < kUdpBatch && engine->PopDatagram(listener->udp, &dgram)) {
      handled++;
      std::string payload;
      if (DecodeFrame(reinterpret_cast<const std::uint8_t*>(dgram.data), dgram.len, &payload) ==
          FrameDecodeStatus::kFrame) {
        udp_requests_->Inc();
        // Best-effort reply, UDP semantics: a refused send drops the
        // response like a full socket buffer.
        engine->SendDatagram(listener->udp, dgram.peer, EncodeFrame(store_.Serve(payload, lane)));
      } else {
        frame_errors_->Inc();  // stray/truncated datagram: drop, never assert
      }
    }
    if (handled == kUdpBatch) {
      IoEngine::RelatchReadable(listener->udp);
      Runtime::Yield();
    }
  }
  // As in AcceptLoop, the listener handle is retired by Stop(), not here.
  live_server_uthreads_.fetch_sub(1, std::memory_order_acq_rel);
}

}  // namespace skyloft
