// End-to-end KV serving benchmark over real loopback sockets (DESIGN.md
// section 10, EXPERIMENTS.md "kv_server").
//
// Stands up the networked KV server (src/apps/kv_server_net) on the host
// runtime — per-worker epoll engine cores, SO_REUSEPORT sharding, one
// handler uthread per connection — and drives it from an epoll-based load
// generator running in separate OS threads over real TCP connections:
//
//   - closed-loop points: every connection keeps exactly one request in
//     flight; measures peak sustainable throughput and unloaded latency;
//   - open-loop points: requests are issued on a fixed per-connection
//     schedule regardless of replies (latency is measured from the
//     *scheduled* send instant, so server queueing delay is charged to the
//     server — the tail-at-scale methodology of Fig. 7/8).
//
// Each point runs under both host-scheduler drivers: the lock-free
// two-level-runqueue work stealer and the force_locked shard-mutex
// baseline, making the scheduler path cost visible in p99/p999. A
// syscalls/request column is computed from the engines' syscall counters.
//
// The connection sweep includes a many-connection point (10k in --smoke,
// 100k in --full if the fd limit allows) to exercise uthread-per-connection
// scale: stacks are allocated lazily (make_unique_for_overwrite) so 10k
// parked handlers cost pages actually touched, not stack_size each.
//
// Emits BENCH_kv_server.json (schema in EXPERIMENTS.md).
//
//   ./build/bench/bench_kv_server [--smoke | --full] [--workers N]
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/apps/kv_server_net.h"
#include "src/base/histogram.h"
#include "src/net/frame.h"
#include "src/runtime/sync.h"
#include "src/runtime/uthread.h"

namespace skyloft {
namespace {

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Tries to raise RLIMIT_NOFILE high enough for the many-connection points
// (each connection costs two fds in this single-process setup). Returns the
// effective soft limit.
std::size_t RaiseFdLimit(std::size_t want) {
  rlimit lim{};
  if (getrlimit(RLIMIT_NOFILE, &lim) != 0) {
    return 1024;
  }
  if (lim.rlim_cur >= want) {
    return static_cast<std::size_t>(lim.rlim_cur);
  }
  rlimit raised = lim;
  raised.rlim_cur = want;
  raised.rlim_max = std::max<rlim_t>(lim.rlim_max, want);
  if (setrlimit(RLIMIT_NOFILE, &raised) == 0) {  // needs CAP_SYS_RESOURCE
    return want;
  }
  raised.rlim_cur = lim.rlim_max;  // best we can do unprivileged
  raised.rlim_max = lim.rlim_max;
  setrlimit(RLIMIT_NOFILE, &raised);
  std::fprintf(stderr, "fd limit raise to %zu refused; staying at %zu\n", want,
               static_cast<std::size_t>(raised.rlim_cur));
  return static_cast<std::size_t>(raised.rlim_cur);
}

// ---------------------------------------------------------------------------
// Epoll-based client pool (runs in plain OS threads, never on the runtime).
// ---------------------------------------------------------------------------

struct ClientConn {
  int fd = -1;
  bool connected = false;
  bool want_out = false;       // EPOLLOUT currently armed
  std::string outbuf;          // unsent bytes (partial writes / EAGAIN)
  std::size_t outbuf_off = 0;
  FrameDecoder decoder;
  std::deque<std::int64_t> inflight;  // scheduled send instants, FIFO
  std::int64_t next_due_ns = 0;       // open loop: next scheduled send
  unsigned rng = 1;
};

struct LoadPointConfig {
  bool open_loop = false;
  int connections = 0;
  double offered_rps = 0;  // open loop only
  std::int64_t warmup_ns = 0;
  std::int64_t measure_ns = 0;
  int io_threads = 2;
  int connect_inflight_cap = 384;  // paced setup: stay under listen backlog
  int pipeline_cap = 64;           // open loop: max outstanding per conn
};

struct LoadPointOutcome {
  double achieved_rps = 0;
  std::int64_t p50_ns = 0;
  std::int64_t p99_ns = 0;
  std::int64_t p999_ns = 0;
  std::uint64_t replies = 0;
  std::uint64_t errors = 0;     // connection failures / resets
  std::uint64_t shed = 0;       // open loop: sends skipped at pipeline cap
  int connected = 0;            // connections actually established
};

// One client I/O thread: owns `conns`, an epoll set, and a slice of the
// offered load. Runs connect, then warmup+measure, recording reply latency.
class ClientThread {
 public:
  ClientThread(std::uint16_t port, const LoadPointConfig& cfg, int index, int nconns)
      : port_(port), cfg_(cfg), index_(index) {
    conns_.resize(static_cast<std::size_t>(nconns));
    epfd_ = epoll_create1(EPOLL_CLOEXEC);
  }
  ~ClientThread() {
    for (ClientConn& c : conns_) {
      if (c.fd >= 0) {
        close(c.fd);
      }
    }
    if (epfd_ >= 0) {
      close(epfd_);
    }
  }

  void Launch(std::atomic<int>* ready, std::atomic<std::int64_t>* start_ns,
              std::atomic<int>* done) {
    thread_ = std::thread([this, ready, start_ns, done] {
      Connect();
      ready->fetch_add(1, std::memory_order_acq_rel);
      // Wait for the coordinator to publish the common start instant so all
      // threads enter warmup together.
      std::int64_t start = 0;
      while ((start = start_ns->load(std::memory_order_acquire)) == 0) {
        std::this_thread::yield();
      }
      Run(start);
      done->fetch_add(1, std::memory_order_acq_rel);
    });
  }
  void Join() { thread_.join(); }

  const LatencyHistogram& latency() const { return latency_; }
  std::uint64_t replies() const { return replies_; }
  std::uint64_t errors() const { return errors_; }
  std::uint64_t shed() const { return shed_; }
  int connected() const { return connected_; }

 private:
  void Arm(ClientConn* c, bool out) {
    epoll_event ev{};
    ev.events = EPOLLIN | (out ? EPOLLOUT : 0u);
    ev.data.ptr = c;
    epoll_ctl(epfd_, EPOLL_CTL_MOD, c->fd, &ev);
    c->want_out = out;
  }

  void Fail(ClientConn* c) {
    if (c->fd >= 0) {
      epoll_ctl(epfd_, EPOLL_CTL_DEL, c->fd, nullptr);
      close(c->fd);
      c->fd = -1;
    }
    c->connected = false;
    errors_++;
  }

  // Establishes all connections, pacing in-flight connects so the server's
  // accept batches keep up with the listen backlog.
  void Connect() {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port_);

    std::size_t next = 0;
    int inflight = 0;
    std::size_t pending = conns_.size();
    std::vector<epoll_event> events(512);
    const std::int64_t deadline = NowNs() + 60'000'000'000ll;
    while (pending > 0 && NowNs() < deadline) {
      while (next < conns_.size() && inflight < cfg_.connect_inflight_cap) {
        ClientConn* c = &conns_[next++];
        c->rng = static_cast<unsigned>(index_ * 1000003 + static_cast<int>(next)) * 2654435761u + 1;
        c->fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
        if (c->fd < 0) {
          Fail(c);
          pending--;
          continue;
        }
        const int one = 1;
        setsockopt(c->fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        const int rc = connect(c->fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
        epoll_event ev{};
        ev.data.ptr = c;
        if (rc == 0) {
          c->connected = true;
          connected_++;
          ev.events = EPOLLIN;
          epoll_ctl(epfd_, EPOLL_CTL_ADD, c->fd, &ev);
          pending--;
        } else if (errno == EINPROGRESS) {
          ev.events = EPOLLIN | EPOLLOUT;
          c->want_out = true;
          epoll_ctl(epfd_, EPOLL_CTL_ADD, c->fd, &ev);
          inflight++;
        } else {
          Fail(c);
          pending--;
        }
      }
      const int n = epoll_wait(epfd_, events.data(), static_cast<int>(events.size()), 20);
      for (int i = 0; i < n; i++) {
        auto* c = static_cast<ClientConn*>(events[i].data.ptr);
        if (c->connected) {
          continue;  // stray event from an already-completed connect
        }
        inflight--;
        pending--;
        int err = 0;
        socklen_t len = sizeof(err);
        getsockopt(c->fd, SOL_SOCKET, SO_ERROR, &err, &len);
        if (err != 0 || (events[i].events & (EPOLLERR | EPOLLHUP)) != 0) {
          Fail(c);
          continue;
        }
        c->connected = true;
        connected_++;
        Arm(c, false);
      }
    }
  }

  void QueueRequest(ClientConn* c, std::int64_t sched_ns) {
    c->rng = c->rng * 1664525u + 1013904223u;
    const unsigned roll = c->rng % 1000;
    std::string request;
    const std::string key = "user" + std::to_string(c->rng % 10'000);
    if (roll < 2) {
      request = "SCAN user 64";
    } else if (roll < 4) {
      request = "SET " + key + " updated";
    } else {
      request = "GET " + key;
    }
    c->outbuf += EncodeFrame(request);
    c->inflight.push_back(sched_ns);
  }

  // Returns false when the connection died mid-write.
  bool FlushOut(ClientConn* c) {
    while (c->outbuf_off < c->outbuf.size()) {
      const ssize_t n = write(c->fd, c->outbuf.data() + c->outbuf_off,
                              c->outbuf.size() - c->outbuf_off);
      if (n > 0) {
        c->outbuf_off += static_cast<std::size_t>(n);
        continue;
      }
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!c->want_out) {
          Arm(c, true);
        }
        return true;
      }
      return false;
    }
    c->outbuf.clear();
    c->outbuf_off = 0;
    if (c->want_out) {
      Arm(c, false);
    }
    return true;
  }

  // Drains replies; records latency for ones completed inside the measure
  // window. Returns false when the connection died.
  bool DrainIn(ClientConn* c, std::int64_t measure_start, std::int64_t measure_end) {
    char buf[8192];
    while (true) {
      const ssize_t n = read(c->fd, buf, sizeof(buf));
      if (n > 0) {
        c->decoder.Feed(buf, static_cast<std::size_t>(n));
        std::string payload;
        while (c->decoder.Next(&payload) == FrameDecodeStatus::kFrame) {
          const std::int64_t now = NowNs();
          if (!c->inflight.empty()) {
            const std::int64_t sched = c->inflight.front();
            c->inflight.pop_front();
            if (now >= measure_start && now < measure_end) {
              latency_.Record(now - sched);
              replies_++;
            }
          }
          if (!cfg_.open_loop) {
            // Closed loop: next request leaves the instant the reply landed.
            QueueRequest(c, NowNs());
            if (!FlushOut(c)) {
              return false;
            }
          }
        }
        if (c->decoder.poisoned()) {
          return false;
        }
        if (static_cast<std::size_t>(n) == sizeof(buf)) {
          continue;
        }
        return true;
      }
      if (n == 0) {
        return false;
      }
      if (errno == EINTR) {
        continue;
      }
      return errno == EAGAIN || errno == EWOULDBLOCK;
    }
  }

  void Run(std::int64_t start_ns) {
    const std::int64_t measure_start = start_ns + cfg_.warmup_ns;
    const std::int64_t measure_end = measure_start + cfg_.measure_ns;
    std::vector<epoll_event> events(1024);

    // Open loop: spread each connection's schedule over its interval so the
    // aggregate arrival process is near-uniform from the first tick.
    std::int64_t interval_ns = 0;
    if (cfg_.open_loop) {
      const double per_thread = cfg_.offered_rps / cfg_.io_threads;
      const double per_conn = per_thread / static_cast<double>(std::max<std::size_t>(
                                              1, conns_.size()));
      interval_ns = static_cast<std::int64_t>(1e9 / std::max(per_conn, 1e-3));
      std::size_t i = 0;
      for (ClientConn& c : conns_) {
        c.next_due_ns =
            start_ns + static_cast<std::int64_t>((interval_ns * static_cast<std::int64_t>(i++)) /
                                                 static_cast<std::int64_t>(conns_.size()));
      }
    } else {
      for (ClientConn& c : conns_) {
        if (c.connected) {
          QueueRequest(&c, NowNs());
          if (!FlushOut(&c)) {
            Fail(&c);
          }
        }
      }
    }

    while (NowNs() < measure_end) {
      if (cfg_.open_loop) {
        const std::int64_t now = NowNs();
        for (ClientConn& c : conns_) {
          if (!c.connected) {
            continue;
          }
          while (c.next_due_ns <= now) {
            if (static_cast<int>(c.inflight.size()) >= cfg_.pipeline_cap) {
              // Overload shedding: keep the schedule, drop the send. Counted
              // so overloaded points are visibly saturated, not mislabeled.
              shed_++;
              c.next_due_ns += interval_ns;
              continue;
            }
            QueueRequest(&c, c.next_due_ns);  // latency charged from schedule
            c.next_due_ns += interval_ns;
          }
          if (!c.outbuf.empty() && !FlushOut(&c)) {
            Fail(&c);
          }
        }
      }
      const int n = epoll_wait(epfd_, events.data(), static_cast<int>(events.size()),
                               cfg_.open_loop ? 1 : 10);
      for (int i = 0; i < n; i++) {
        auto* c = static_cast<ClientConn*>(events[i].data.ptr);
        if (c->fd < 0) {
          continue;
        }
        if ((events[i].events & (EPOLLERR | EPOLLHUP)) != 0) {
          Fail(c);
          continue;
        }
        bool ok = true;
        if ((events[i].events & EPOLLOUT) != 0) {
          ok = FlushOut(c);
        }
        if (ok && (events[i].events & EPOLLIN) != 0) {
          ok = DrainIn(c, measure_start, measure_end);
        }
        if (!ok) {
          Fail(c);
        }
      }
    }
  }

  std::uint16_t port_;
  LoadPointConfig cfg_;
  int index_;
  int epfd_ = -1;
  std::vector<ClientConn> conns_;
  std::thread thread_;

  LatencyHistogram latency_;
  std::uint64_t replies_ = 0;
  std::uint64_t errors_ = 0;
  std::uint64_t shed_ = 0;
  int connected_ = 0;
};

// Runs the whole client pool to completion (plain threads, no runtime).
LoadPointOutcome RunClientPool(std::uint16_t port, const LoadPointConfig& cfg) {
  const int threads = cfg.io_threads;
  std::vector<std::unique_ptr<ClientThread>> pool;
  std::atomic<int> ready{0};
  std::atomic<std::int64_t> start_ns{0};
  std::atomic<int> done{0};
  for (int t = 0; t < threads; t++) {
    const int base = cfg.connections / threads;
    const int nconns = base + (t < cfg.connections % threads ? 1 : 0);
    pool.push_back(std::make_unique<ClientThread>(port, cfg, t, nconns));
  }
  for (auto& ct : pool) {
    ct->Launch(&ready, &start_ns, &done);
  }
  while (ready.load(std::memory_order_acquire) < threads) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  start_ns.store(NowNs() + 5'000'000, std::memory_order_release);  // 5 ms to the gate

  LoadPointOutcome out;
  LatencyHistogram merged;
  for (auto& ct : pool) {
    ct->Join();
    merged.Merge(ct->latency());
    out.replies += ct->replies();
    out.errors += ct->errors();
    out.shed += ct->shed();
    out.connected += ct->connected();
  }
  out.achieved_rps = static_cast<double>(out.replies) /
                     (static_cast<double>(cfg.measure_ns) / 1e9);
  out.p50_ns = merged.Percentile(0.5);
  out.p99_ns = merged.Percentile(0.99);
  out.p999_ns = merged.Percentile(0.999);
  return out;
}

// Runs one load point against an already-started server. Must be called
// from uthread context.
//
// The client pool runs in a forked child process: the fd limit is
// per-process, and a 10k-connection point costs ~10k fds on EACH side —
// client fds in the child, server fds here — which would bust a single
// process's limit. The child reports the outcome over a pipe; the parent
// parks on the pipe through its own I/O engine (WaitForReadable works on
// any pollable fd, not just sockets), so the engine cores keep serving
// while we wait.
SKYLOFT_MAY_SWITCH LoadPointOutcome RunPoint(Runtime* rt, std::uint16_t port,
                                             const LoadPointConfig& cfg) {
  int pipefd[2];
  if (pipe(pipefd) != 0) {
    std::fprintf(stderr, "pipe failed: %s\n", std::strerror(errno));
    return {};
  }
  const pid_t child = fork();
  if (child < 0) {
    // No child process available: run in-process with whatever connection
    // count fits half the fd budget (both endpoint fds land here).
    close(pipefd[0]);
    close(pipefd[1]);
    std::fprintf(stderr, "fork failed (%s); running client pool in-process\n",
                 std::strerror(errno));
    LoadPointConfig clamped = cfg;
    std::atomic<bool> done{false};
    LoadPointOutcome out;
    std::thread pool([&] {
      out = RunClientPool(port, clamped);
      done.store(true, std::memory_order_release);
    });
    while (!done.load(std::memory_order_acquire)) {
      Runtime::SleepFor(1000);
    }
    pool.join();
    return out;
  }
  if (child == 0) {
    // Client process. Only this thread survived the fork; the runtime's
    // workers, timers, and sockets belong to the parent (inherited fd
    // copies are left untouched and die with _exit).
    close(pipefd[0]);
    const LoadPointOutcome out = RunClientPool(port, cfg);
    ssize_t wrote = write(pipefd[1], &out, sizeof(out));
    _exit(wrote == sizeof(out) ? 0 : 1);
  }
  close(pipefd[1]);
  LoadPointOutcome out;
  IoEngine* engine = rt->io_engine(0);
  IoHandle* handle = engine->Register(pipefd[0]);
  std::size_t got = 0;
  auto* bytes = reinterpret_cast<unsigned char*>(&out);
  while (got < sizeof(out)) {
    const unsigned ready = WaitForReadable(handle);
    const ssize_t n = read(pipefd[0], bytes + got, sizeof(out) - got);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      continue;
    }
    if ((ready & (kIoHup | kIoError)) != 0 || n == 0) {
      break;  // child died before reporting
    }
  }
  engine->Deregister(handle);  // closes pipefd[0]
  if (got < sizeof(out)) {
    std::fprintf(stderr, "client process died before reporting\n");
    out = {};
  }
  int status = 0;
  waitpid(child, &status, 0);  // child already exited; returns immediately
  return out;
}

struct PointSpec {
  const char* mode;  // "closed" | "open"
  int connections;
  double offered_rps;  // open only
  int reps = 1;        // repeat and report the median-p99 rep (noise damping)
};

// Picks the repetition with the median p99 — on a small shared box the
// kernel's own timeslicing injects multi-ms noise into any single run, and
// the median rep is the honest central tendency for every reported column
// (keeping achieved/p50/p999 from the same run as the p99 they belong to).
LoadPointOutcome MedianByP99(std::vector<LoadPointOutcome> reps) {
  std::sort(reps.begin(), reps.end(),
            [](const LoadPointOutcome& a, const LoadPointOutcome& b) {
              return a.p99_ns < b.p99_ns;
            });
  return reps[reps.size() / 2];
}

}  // namespace
}  // namespace skyloft

int main(int argc, char** argv) {
  using namespace skyloft;

  bool smoke = false;
  bool full = false;
  int workers = 4;
  for (int i = 1; i < argc; i++) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--full") {
      full = true;
    } else if (arg == "--workers" && i + 1 < argc) {
      workers = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: %s [--smoke | --full] [--workers N]\n", argv[0]);
      return 2;
    }
  }

  // The client pool runs in a forked child (see RunPoint), so each side of a
  // connection lands in its own process: the per-process budget is one fd
  // per connection plus slack for listeners, epoll sets, and stdio.
  const std::size_t max_point_conns = full ? 100'000 : 10'000;
  const std::size_t fd_limit = RaiseFdLimit(max_point_conns + 1024);
  const int conn_budget = static_cast<int>(fd_limit - 1024);

  std::vector<PointSpec> points;
  if (smoke) {
    points = {{"closed", 64, 0, 3},
              {"closed", 512, 0, 3},
              {"open", 10'000, 20'000, 1}};
  } else if (full) {
    points = {{"closed", 64, 0, 5},
              {"closed", 1'024, 0, 5},
              {"open", 10'000, 20'000, 3},
              {"open", 10'000, 50'000, 3},
              {"open", 100'000, 20'000, 1}};
  } else {
    points = {{"closed", 64, 0, 1}, {"open", 2'000, 10'000, 1}};
  }

  BenchReporter reporter("kv_server");
  reporter.MetaNum("workers", workers);
  reporter.MetaBool("smoke", smoke);
  reporter.MetaBool("full", full);
  reporter.MetaNum("fd_limit", static_cast<double>(fd_limit));
  reporter.MetaNum("connection_budget", conn_budget);
  reporter.MetaStr("latency_convention",
                   "closed: send->reply; open: scheduled-send->reply (queueing charged)");
  reporter.MetaStr("syscall_convention",
                   "syscalls/request = (read + write + accept) / served "
                   "requests over the whole point (warmup included on both sides)");

  PrintHeader("kv_server over loopback TCP",
              {"policy", "mode", "conns", "offered", "achieved", "p99_ns", "sys/req"});

  for (const bool force_locked : {false, true}) {
    for (const PointSpec& spec : points) {
      LoadPointConfig cfg;
      cfg.open_loop = std::string(spec.mode) == "open";
      cfg.connections = std::min(spec.connections, conn_budget);
      if (cfg.connections < spec.connections) {
        std::fprintf(stderr, "point %s/%d clamped to %d conns by fd limit %zu\n", spec.mode,
                     spec.connections, cfg.connections, fd_limit);
      }
      cfg.offered_rps = spec.offered_rps;
      cfg.warmup_ns = smoke ? 300'000'000 : 500'000'000;
      cfg.measure_ns = smoke ? 1'500'000'000 : 5'000'000'000;

      RuntimeOptions ropts;
      ropts.workers = workers;
      // Small stacks: handlers are shallow (pop/serve/send), and at 10k+
      // uthreads the default 64 KB each would be the dominant allocation.
      ropts.stack_size = 16 * 1024;
      ropts.io_engine = true;
      ropts.sched.force_locked = force_locked;

      Runtime rt(ropts);
      LoadPointOutcome out;
      std::uint64_t server_requests = 0;
      std::uint64_t peer_resets = 0;
      std::uint64_t frame_errors = 0;
      std::uint64_t io_syscalls = 0;
      rt.Run([&] {
        KvServerNetOptions sopts;
        sopts.udp = false;  // TCP sweep; kv_server_net_test covers UDP
        KvServerNet server(&rt, sopts);
        server.Start();
        const std::uint64_t sys_before = rt.io_data_syscalls();
        std::vector<LoadPointOutcome> reps;
        for (int rep = 0; rep < spec.reps; rep++) {
          reps.push_back(RunPoint(&rt, server.tcp_port(), cfg));
        }
        out = MedianByP99(std::move(reps));
        io_syscalls = rt.io_data_syscalls() - sys_before;
        server_requests = server.tcp_requests();
        peer_resets = server.peer_resets();
        frame_errors = server.frame_errors();
        server.Stop();
      });
      const double sys_per_req =
          static_cast<double>(io_syscalls) /
          static_cast<double>(std::max<std::uint64_t>(1, server_requests));
      const char* policy = force_locked ? "locked" : "ws-lockfree";
      PrintCell(policy);
      PrintCell(spec.mode);
      PrintCell(static_cast<std::int64_t>(cfg.connections));
      PrintCell(cfg.open_loop ? cfg.offered_rps : 0.0);
      PrintCell(out.achieved_rps);
      PrintCell(out.p99_ns);
      PrintCell(sys_per_req);
      EndRow();

      reporter.AddRow()
          .Str("policy", policy)
          .Str("mode", spec.mode)
          .Int("connections", cfg.connections)
          .Int("connected", out.connected)
          .Num("offered_rps", cfg.open_loop ? cfg.offered_rps : 0.0)
          .Num("achieved_rps", out.achieved_rps)
          .Int("p50_ns", out.p50_ns)
          .Int("p99_ns", out.p99_ns)
          .Int("p999_ns", out.p999_ns)
          .Int("replies", static_cast<std::int64_t>(out.replies))
          .Int("client_errors", static_cast<std::int64_t>(out.errors))
          .Int("shed_sends", static_cast<std::int64_t>(out.shed))
          .Int("server_requests", static_cast<std::int64_t>(server_requests))
          .Int("server_peer_resets", static_cast<std::int64_t>(peer_resets))
          .Int("server_frame_errors", static_cast<std::int64_t>(frame_errors))
          .Int("io_syscalls", static_cast<std::int64_t>(io_syscalls))
          .Num("syscalls_per_request", sys_per_req)
          .Int("steals", static_cast<std::int64_t>(rt.steals()))
          .Int("preemptions", static_cast<std::int64_t>(rt.preemptions()))
          .Str("sched_driver", rt.lock_free_sched() ? "lock-free" : "shard-mutex");
    }
  }

  if (!reporter.WriteFile()) {
    return 1;
  }
  return 0;
}
