// Networked KV server on the Skyloft host runtime (DESIGN.md section 10).
//
// This is the production serving path for the paper's §5.3 Memcached-style
// scenario: the in-memory KvStore served over *real* TCP and UDP sockets by
// uthreads on the M:N runtime, with per-worker I/O engine cores
// (src/runtime/io_engine) turning socket readiness into park/unpark wakeups.
//
// Architecture (one slice per runtime worker):
//   - a SO_REUSEPORT TCP listener + UDP socket per worker, registered with
//     that worker's engine, so the kernel shards connections/datagrams at
//     accept time and an fd never changes engines;
//   - an acceptor uthread per listener taking accepted fds in batches;
//   - one handler uthread per TCP connection: WaitForReadable -> pop every
//     received segment into the frame decoder (src/net/frame) -> serve each
//     decoded request -> queue all replies of the batch as one send;
//   - a UDP uthread per worker serving one frame per datagram.
//
// There is one loop per socket kind. Every loop speaks the engine's
// completion-shaped API (TakeAccepted, PopRecv, SendEnqueue,
// PopDatagram/SendDatagram), and the engine makes the syscalls a readiness
// loop would, in the caller's context.
//
// Handler uthreads are ordinary runtime uthreads: they migrate via work
// stealing, while their fd's readiness keeps firing on the home engine —
// exercising the remote-enqueue mailbox path of the lock-free runqueues.
//
// The store is a striped hash table plus one ordered key index, each behind
// SpinBackoff + PreemptGuard spinlocks, replacing the old example's 8 global
// UthreadMutex shards; per-op-kind service latencies land in the metrics
// registry ("kv_server" group) instead of a hand-rolled histogram.
#ifndef SRC_APPS_KV_SERVER_NET_H_
#define SRC_APPS_KV_SERVER_NET_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/apps/kvstore.h"
#include "src/base/compiler.h"
#include "src/base/histogram.h"
#include "src/base/metrics.h"
#include "src/runtime/uthread.h"

namespace skyloft {

struct IoHandle;

// The KV request text protocol carried in each frame payload:
//   "GET <key>" | "SET <key> <value>" | "SCAN <start> <limit>"
// Replies: "VALUE <v>" | "NOT_FOUND" | "STORED" | "<k>=<v>;..." | "EMPTY" |
// "ERROR".
enum class KvOpKind { kGet = 0, kSet = 1, kScan = 2, kError = 3 };

// KvStore sharded across a striped spin-lock table. Stripes are cache-line
// separated and sized from the worker count (4x workers, rounded up to a
// power of two, min 8) so the GET fast path of co-scheduled workers rarely
// collides — the contention hot spot the old fixed-8-shard example hid. One
// ordered index of every key serves SCAN; only a SET that adds a key writes
// it, and its lock is never held together with a stripe or lane lock.
// Critical sections are short and preemption-guarded, so a SpinBackoff
// spinlock beats a parking mutex here.
class KvStripedStore {
 public:
  explicit KvStripedStore(int workers);

  // Serves one request, recording service latency into the per-kind lane
  // histograms. `lane` spreads latency recording across lanes (callers pass
  // the uthread id); any value is safe.
  std::string Serve(const std::string& request, std::uint64_t lane);

  // Direct store access for preloading (single-threaded setup only).
  void Preload(const std::string& key, const std::string& value);

  int stripes() const { return static_cast<int>(stripes_.size()); }

  // Merges the per-lane service-time recordings into the per-kind summary
  // histograms linked in the metrics registry ("kv_server.get_ns", ...).
  // Call while serving is quiesced (after Stop()).
  void MergeLatencies();
  const LatencyHistogram& latency(KvOpKind kind) const {
    return merged_[static_cast<int>(kind)];
  }

 private:
  struct alignas(kCacheLineSize) Stripe {
    std::atomic_flag spin = ATOMIC_FLAG_INIT;
    KvStore store;
  };
  // Every key in the store, in order, on its own cache line.
  struct alignas(kCacheLineSize) KeyIndex {
    std::atomic_flag spin = ATOMIC_FLAG_INIT;
    std::set<std::string> keys;
  };
  // Latency recording lane: a short spinlock per lane keeps LatencyHistogram
  // (not internally thread-safe) consistent without a global bottleneck.
  struct alignas(kCacheLineSize) LatencyLane {
    std::atomic_flag spin = ATOMIC_FLAG_INIT;
    LatencyHistogram hist[4];  // indexed by KvOpKind
  };

  SKYLOFT_NO_SWITCH Stripe& StripeOf(const std::string& key);
  SKYLOFT_NO_SWITCH static void SpinLock(std::atomic_flag& flag);
  SKYLOFT_NO_SWITCH static void SpinUnlock(std::atomic_flag& flag);

  // Annotated wrappers over the raw flag spin, one lock class each, so
  // skylint's order graph shows any nesting of index, stripe and lane.
  SKYLOFT_NO_SWITCH SKYLOFT_ACQUIRES(kv_index) void LockIndex();
  SKYLOFT_NO_SWITCH SKYLOFT_RELEASES(kv_index) void UnlockIndex();
  SKYLOFT_NO_SWITCH SKYLOFT_ACQUIRES(kv_stripe) static void LockStripe(Stripe& s);
  SKYLOFT_NO_SWITCH SKYLOFT_RELEASES(kv_stripe) static void UnlockStripe(Stripe& s);
  SKYLOFT_NO_SWITCH SKYLOFT_ACQUIRES(kv_lane) static void LockLane(LatencyLane& l);
  SKYLOFT_NO_SWITCH SKYLOFT_RELEASES(kv_lane) static void UnlockLane(LatencyLane& l);

  std::vector<std::unique_ptr<Stripe>> stripes_;
  std::vector<std::unique_ptr<LatencyLane>> lanes_;
  KeyIndex index_;
  LatencyHistogram merged_[4];
};

struct KvServerNetOptions {
  bool udp = true;             // also serve UDP (TCP is always served)
  std::uint16_t tcp_port = 0;  // 0 = kernel-assigned; read back via tcp_port()
  std::uint16_t udp_port = 0;
  int preload_keys = 10'000;
};

// One serving instance. Lifecycle (all inside Runtime::Run, uthread context):
//   KvServerNet server(&rt, options);
//   server.Start();   // binds, registers, spawns server uthreads
//   ... drive load ...
//   server.Stop();    // interrupts waits, joins server uthreads
class KvServerNet {
 public:
  KvServerNet(Runtime* rt, const KvServerNetOptions& options);
  ~KvServerNet();

  SKYLOFT_MAY_SWITCH void Start();
  SKYLOFT_MAY_SWITCH void Stop();

  std::uint16_t tcp_port() const { return tcp_port_; }
  std::uint16_t udp_port() const { return udp_port_; }
  KvStripedStore& store() { return store_; }

  std::uint64_t tcp_connections() const { return tcp_conns_->Value(); }
  std::uint64_t tcp_requests() const { return tcp_requests_->Value(); }
  std::uint64_t udp_requests() const { return udp_requests_->Value(); }
  std::uint64_t frame_errors() const { return frame_errors_->Value(); }
  std::uint64_t peer_resets() const { return peer_resets_->Value(); }
  std::int64_t open_connections() const { return open_conns_.load(std::memory_order_relaxed); }

 private:
  struct Listener;  // per-worker listener/udp state

  SKYLOFT_MAY_SWITCH void AcceptLoop(Listener* listener);
  SKYLOFT_MAY_SWITCH void ConnLoop(IoHandle* conn);
  SKYLOFT_MAY_SWITCH void UdpLoop(Listener* listener);

  void TrackConn(IoHandle* handle);
  // Returns false if Stop() already interrupted (and will not re-interrupt)
  // this handle — i.e. the handle was no longer in the registry.
  bool UntrackConn(IoHandle* handle);

  Runtime* rt_;
  KvServerNetOptions options_;
  KvStripedStore store_;
  std::vector<std::unique_ptr<Listener>> listeners_;
  std::uint16_t tcp_port_ = 0;
  std::uint16_t udp_port_ = 0;

  std::atomic<bool> stop_{false};
  std::atomic<int> live_server_uthreads_{0};
  std::atomic<std::int64_t> open_conns_{0};

  // Live TCP connection registry, for Stop() to interrupt parked handlers.
  // Interrupt happens under the same spinlock as untrack, so a handle is
  // never interrupted after its handler began deregistration. Lock class
  // `conns_registry`; hold windows must stay switch-free (skylint R5).
  SKYLOFT_NO_SWITCH SKYLOFT_ACQUIRES(conns_registry) void LockConns();
  SKYLOFT_NO_SWITCH SKYLOFT_RELEASES(conns_registry) void UnlockConns();
  std::atomic_flag conns_spin_ = ATOMIC_FLAG_INIT;
  std::vector<IoHandle*> conns_;

  MetricGroup metrics_{"kv_server"};
  Counter* tcp_conns_ = nullptr;
  Counter* tcp_requests_ = nullptr;
  Counter* udp_requests_ = nullptr;
  Counter* frame_errors_ = nullptr;
  Counter* peer_resets_ = nullptr;
};

}  // namespace skyloft

#endif  // SRC_APPS_KV_SERVER_NET_H_
