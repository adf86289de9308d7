// The two real-socket KV workloads: KvServerNet on the host runtime, driven
// over loopback TCP by a load generator thread in this process.
//
//   kv-get-closed  2 server workers, 1 connection, closed loop, GET-only over
//                  a hot subset of the preloaded store.
//   kv-mix-open    1 server worker, 4 connections, open loop at a fixed
//                  rate, GET/SET/SCAN uniform over the whole store.
//
// Every reply is checked against a client-side model of the store.
#include <fcntl.h>
#include <netinet/in.h>
#include <pthread.h>
#include <sched.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstring>
#include <deque>
#include <memory>
#include <thread>

#include "perfbench/common.h"
#include "src/apps/kv_server_net.h"
#include "src/base/random.h"
#include "src/net/frame.h"
#include "src/runtime/io_engine.h"
#include "src/runtime/sync.h"
#include "src/runtime/uthread.h"

namespace perfbench {
namespace {

using skyloft::EncodeFrame;
using skyloft::FrameDecoder;
using skyloft::FrameDecodeStatus;
using skyloft::KvOpKind;
using skyloft::KvServerNet;
using skyloft::Rng;
using skyloft::Runtime;

// The store KvServerNet::Start() preloads: "user<i>" -> "profile-<i>".
constexpr std::uint32_t kKeys = 1'000'000;
constexpr std::int64_t kWarmupNs = 500'000'000;
// kv-get-closed draws its GETs from this many distinct keys.
constexpr std::uint32_t kHotKeys = 1024;
constexpr std::size_t kClosedStream = 1 << 16;  // requests cycled by the closed loop
// kv-mix-open: fixed offered rate and op mix (README.md says how they were
// chosen). The striped store applies a SCAN's limit per stripe, so with the
// 8 stripes of a 1-worker server a SCAN returns up to 64 pairs.
constexpr double kMixRateRps = 20'000;
constexpr double kMixScanShare = 0.03;
constexpr double kMixSetShare = 0.05;
constexpr std::uint32_t kScanLimit = 8;
// A SCAN starting this many keys before the end sees more than kScanLimit
// keys in every stripe (about 100k / stripes each, hash-balanced).
constexpr std::uint32_t kFullScanKeys = 100'000;
constexpr std::size_t kPipelineCap = 4096;    // outstanding requests per connection
constexpr std::int64_t kLateNs = 25'000;      // client.late_frac threshold
constexpr std::int64_t kDrainNs = 2'000'000'000;  // wait for stragglers after the run
constexpr std::size_t kReplayRequests = 20'000;

enum class Op : std::uint8_t { kGet, kSet, kScan };

// Lexicographic order of the preloaded key strings, for checking SCAN. The
// keys are "user" + decimal index, so their order is the preorder of the
// decimal digit trie over [0, kKeys).
struct KeyOrder {
  std::vector<std::uint32_t> order;  // order[r] = index of the r-th smallest key
  std::vector<std::uint32_t> rank;   // rank[order[r]] = r

  KeyOrder() : order(kKeys), rank(kKeys) {
    order[0] = 0;  // "user0" sorts before every other key
    std::uint64_t cur = 1;
    const std::uint64_t max = kKeys - 1;
    for (std::uint32_t r = 1; r < kKeys; r++) {
      order[r] = static_cast<std::uint32_t>(cur);
      if (cur * 10 <= max) {
        cur *= 10;
      } else {
        if (cur >= max) {
          cur /= 10;
        }
        cur += 1;
        while (cur % 10 == 0) {
          cur /= 10;
        }
      }
    }
    for (std::uint32_t r = 0; r < kKeys; r++) {
      rank[order[r]] = r;
    }
  }
};

const KeyOrder& Order() {
  static const KeyOrder order;
  return order;
}

std::string KeyName(std::uint32_t i) { return "user" + std::to_string(i); }

// Parses a whole decimal string_view into *out.
bool ParseU32(std::string_view s, std::uint32_t* out) {
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return !s.empty() && ec == std::errc() && ptr == s.data() + s.size();
}

// Parses "user<i>" with a canonical decimal i < kKeys.
bool ParseKey(std::string_view s, std::uint32_t* index) {
  if (s.size() < 5 || s.substr(0, 4) != "user") {
    return false;
  }
  s.remove_prefix(4);
  if (s.size() > 1 && s[0] == '0') {
    return false;
  }
  return ParseU32(s, index) && *index < kKeys;
}

// Version a stored value carries: 0 for the preloaded "profile-<i>", v for
// "x<i>.<v>" written by the v-th SET of key i. -1 when the value belongs to
// no version of key i.
std::int64_t ValueVersion(std::string_view value, std::uint32_t key) {
  std::uint32_t k = 0;
  if (value.substr(0, 8) == "profile-") {
    return ParseU32(value.substr(8), &k) && k == key ? 0 : -1;
  }
  const auto dot = value.find('.');
  std::uint32_t v = 0;
  if (value.substr(0, 1) != "x" || dot == std::string_view::npos ||
      !ParseU32(value.substr(1, dot - 1), &k) || k != key ||
      !ParseU32(value.substr(dot + 1), &v) || v == 0) {
    return -1;
  }
  return v;
}

// The client's model of the store: per key, the highest SET version sent and
// the highest whose STORED reply has arrived.
struct StoreModel {
  std::vector<std::uint32_t> issued = std::vector<std::uint32_t>(kKeys, 0);
  std::vector<std::uint32_t> acked = std::vector<std::uint32_t>(kKeys, 0);
  std::size_t max_scan_pairs = 0;  // the server's stripes * kScanLimit
};

void SetNoDelay(int fd) {
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

// Opens `n` connections to the server (loopback connects complete in the
// kernel; the server's acceptor picks them up asynchronously).
std::vector<int> Connect(std::uint16_t port, int n) {
  std::vector<int> fds;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  for (int i = 0; i < n; i++) {
    const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0 || connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      std::fprintf(stderr, "perfbench: connect failed: %s\n", std::strerror(errno));
      std::exit(2);
    }
    SetNoDelay(fd);
    fcntl(fd, F_SETFL, fcntl(fd, F_GETFL) | O_NONBLOCK);
    fds.push_back(fd);
  }
  return fds;
}

void CloseAll(std::vector<int>* fds) {
  for (const int fd : *fds) {
    close(fd);
  }
  fds->clear();
}

// What the load generator measured.
struct ClientResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // ns, requests due (open loop) or completed (closed loop) inside the window
  WindowedSamples latency{0, 1};
  std::vector<double> window_rps;  // closed loop: completions per 100 ms window
  double measured_rps = 0;         // open loop: replies per second of the window
  Samples late;                  // open loop: ns each request was sent after its due time
  std::uint64_t late_count = 0;
  std::uint64_t io_syscalls = 0;  // server data-path syscalls inside the window
  std::uint64_t steals = 0;       // runtime steals inside the window
  std::uint64_t measured_requests = 0;
  std::uint64_t scan_replies = 0;
  std::uint64_t scan_keys = 0;
  std::vector<std::string> replay;  // traced runs: the first requests, for Serve()
};

// Writes all of `data`, spinning on EAGAIN. False when the connection died.
bool WriteAll(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n = send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
    } else if (n < 0 && errno != EAGAIN && errno != EINTR) {
      return false;
    }
  }
  return true;
}

// kv-get-closed's client: one request in flight, busy-polling its socket so
// the client adds no wakeup latency of its own.
ClientResult RunClosedLoop(Runtime* rt, int fd, const std::vector<std::uint32_t>& stream,
                           double seconds, SpanLog* spans, Outcome* out) {
  ClientResult r;
  const std::int64_t start = NowNs();
  const std::int64_t window_start = start + kWarmupNs;
  const std::int64_t window_end = window_start + static_cast<std::int64_t>(seconds * 1e9);
  r.latency = WindowedSamples(window_start, seconds);
  constexpr std::int64_t kBucketNs = 100'000'000;
  std::vector<std::uint64_t> buckets(static_cast<std::size_t>((window_end - window_start) /
                                                              kBucketNs) +
                                     1);
  bool in_window = false;
  std::uint64_t sys0 = 0;
  std::uint64_t steals0 = 0;
  FrameDecoder decoder;
  std::string payload;
  char buf[4096];
  for (std::size_t i = 0;; i++) {
    const std::int64_t t0 = NowNs();
    if (t0 >= window_end) {
      break;
    }
    if (!in_window && t0 >= window_start) {
      in_window = true;
      sys0 = rt->io_data_syscalls();
      steals0 = rt->steals();
    }
    const std::uint32_t key = stream[i % stream.size()];
    const std::uint64_t req_id = spans != nullptr ? spans->NextId() : 0;
    const std::string frame = EncodeFrame("GET " + KeyName(key));
    const std::int64_t t_enc = NowNs();
    r.attempted++;
    if (!WriteAll(fd, frame)) {
      r.failed++;
      break;
    }
    const std::int64_t t_sent = NowNs();
    std::int64_t t_read = 0;
    std::int64_t t_got = 0;
    FrameDecodeStatus status = FrameDecodeStatus::kNeedMore;
    std::int64_t t_decoded = 0;
    while (status == FrameDecodeStatus::kNeedMore) {
      t_read = NowNs();
      const ssize_t n = recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
      if (n > 0) {
        t_got = NowNs();
        decoder.Feed(buf, static_cast<std::size_t>(n));
        status = decoder.Next(&payload);
        t_decoded = NowNs();
      } else if (n == 0 || (errno != EAGAIN && errno != EINTR)) {
        status = FrameDecodeStatus::kError;
      }
    }
    if (status != FrameDecodeStatus::kFrame) {
      r.failed++;
      break;
    }
    const std::string want = "VALUE profile-" + std::to_string(key);
    if (payload != want) {
      out->Wrong("GET user" + std::to_string(key) + " returned \"" + payload + "\"");
    }
    if (in_window) {
      r.latency.Add(t_decoded, t_decoded - t0);
      // A reply that lands after the window (a stall) counts in the last,
      // partial bucket, which is dropped below.
      buckets[std::min(buckets.size() - 1,
                       static_cast<std::size_t>((t_decoded - window_start) / kBucketNs))]++;
      r.measured_requests++;
      if (spans != nullptr) {
        spans->Add("frame.encode", t0, t_enc, req_id, req_id);
        spans->Add("client.send", t_enc, t_sent, req_id, req_id);
        spans->Add("client.recv", t_read, t_got, req_id, req_id);
        spans->Add("frame.decode", t_got, t_decoded, req_id, req_id);
        spans->Add("kv.request", t0, t_decoded, req_id, SpanLog::kNoParent, req_id);
      }
    }
  }
  r.io_syscalls = rt->io_data_syscalls() - sys0;
  r.steals = rt->steals() - steals0;
  buckets.pop_back();  // the partial last window
  for (const std::uint64_t b : buckets) {
    r.window_rps.push_back(static_cast<double>(b) * 1e9 / kBucketNs);
  }
  return r;
}

// One generated kv-mix-open request awaiting its reply.
struct Pending {
  std::int64_t due_ns;
  std::uint64_t req_id;
  std::uint32_t key;
  std::uint32_t version;  // SET: version written; GET: acked version at send
  Op op;
};

struct OpenConn {
  int fd = -1;
  bool dead = false;
  std::string out;
  std::size_t out_off = 0;
  FrameDecoder decoder;
  std::deque<Pending> pending;
};

// Checks one kv-mix-open reply against the model.
void CheckMixReply(const Pending& p, const std::string& reply, StoreModel* model,
                   ClientResult* r, Outcome* out) {
  const KeyOrder& order = Order();
  switch (p.op) {
    case Op::kSet:
      if (reply != "STORED") {
        out->Wrong("SET " + KeyName(p.key) + " returned \"" + reply + "\"");
      } else if (model->acked[p.key] < p.version) {
        model->acked[p.key] = p.version;
      }
      return;
    case Op::kGet: {
      const std::int64_t v = reply.rfind("VALUE ", 0) == 0
                                 ? ValueVersion(std::string_view(reply).substr(6), p.key)
                                 : -1;
      if (v < p.version || v > model->issued[p.key]) {
        out->Wrong("GET " + KeyName(p.key) + " returned \"" + reply + "\"");
      }
      return;
    }
    case Op::kScan: {
      // The striped store scans every stripe with the limit, so a reply may
      // hold up to stripes * limit pairs, ordered only within a stripe. It
      // must hold the first `limit` keys at or after the start key, each with
      // a value of that key, and no key before the start or twice. Read in
      // reply order, the keys fall in at most `stripes` ascending runs.
      std::vector<std::uint32_t> ranks;
      std::size_t descents = 0;
      std::string_view rest = reply;
      bool ok = reply != "EMPTY";
      while (ok && !rest.empty()) {
        const auto semi = rest.find(';');
        const auto eq = rest.find('=');
        std::uint32_t k = 0;
        ok = semi != std::string_view::npos && eq < semi && ParseKey(rest.substr(0, eq), &k);
        if (ok) {
          const std::int64_t v = ValueVersion(rest.substr(eq + 1, semi - eq - 1), k);
          ok = v >= 0 && v <= model->issued[k] && order.rank[k] >= order.rank[p.key];
          descents += !ranks.empty() && order.rank[k] < ranks.back() ? 1 : 0;
          ranks.push_back(order.rank[k]);
          rest.remove_prefix(semi + 1);
        }
      }
      const std::uint32_t first = order.rank[p.key];
      if (kKeys - first >= kFullScanKeys) {
        // So many keys follow the start that every stripe holds more than
        // `limit` of them: a reply is a global scan (`limit` pairs, one run)
        // or a full per-stripe one (`stripes * limit` pairs).
        ok = ok && (ranks.size() == kScanLimit ? descents == 0
                                               : ranks.size() == model->max_scan_pairs);
      }
      ok = ok && descents * kScanLimit < model->max_scan_pairs;
      std::sort(ranks.begin(), ranks.end());
      ok = ok && ranks.size() <= model->max_scan_pairs &&
           std::adjacent_find(ranks.begin(), ranks.end()) == ranks.end();
      const std::uint32_t want = std::min<std::uint32_t>(kScanLimit, kKeys - first);
      for (std::uint32_t j = 0; ok && j < want; j++) {
        ok = std::binary_search(ranks.begin(), ranks.end(), first + j);
      }
      if (!ok) {
        out->Wrong("SCAN " + KeyName(p.key) + " returned \"" + reply.substr(0, 200) + "\"");
      }
      r->scan_replies++;
      r->scan_keys += ranks.size();
      return;
    }
  }
}

// kv-mix-open's client: Poisson arrivals spread round-robin over the
// connections, pipelined, each timed from its scheduled send.
ClientResult RunOpenLoop(Runtime* rt, const std::vector<int>& fds, int stripes,
                         std::uint64_t seed, double seconds, SpanLog* spans, Outcome* out,
                         Digest* digest) {
  ClientResult r;
  StoreModel model;
  model.max_scan_pairs = static_cast<std::size_t>(stripes) * kScanLimit;
  Rng rng(Rng::DeriveStream(seed, 2));
  std::vector<OpenConn> conns(fds.size());
  const int ep = epoll_create1(EPOLL_CLOEXEC);
  for (std::size_t c = 0; c < fds.size(); c++) {
    conns[c].fd = fds[c];
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = c;
    epoll_ctl(ep, EPOLL_CTL_ADD, fds[c], &ev);
  }
  const double mean_gap_ns = 1e9 / kMixRateRps;
  auto next_gap = [&] {
    return static_cast<std::int64_t>(-std::log(1.0 - rng.NextDouble()) * mean_gap_ns);
  };
  const std::int64_t start = NowNs() + 1'000'000;
  const std::int64_t window_start = start + kWarmupNs;
  const std::int64_t window_end = window_start + static_cast<std::int64_t>(seconds * 1e9);
  r.latency = WindowedSamples(window_start, seconds);
  std::int64_t due = start + next_gap();
  std::uint64_t seq = 0;
  std::uint64_t measured_replies = 0;
  bool in_window = false;
  std::uint64_t sys0 = 0;
  std::uint64_t steals0 = 0;
  std::string payload;
  char buf[65536];
  epoll_event events[8];
  while (true) {
    const std::int64_t now = NowNs();
    if (!in_window && now >= window_start) {
      in_window = true;
      sys0 = rt->io_data_syscalls();
      steals0 = rt->steals();
    }
    while (due <= now && due < window_end) {
      OpenConn& conn = conns[seq % conns.size()];
      const double roll = rng.NextDouble();
      Pending p{due, spans != nullptr ? spans->NextId() : 0,
                static_cast<std::uint32_t>(rng.NextBelow(kKeys)), 0, Op::kGet};
      std::string request;
      if (roll < kMixScanShare) {
        p.op = Op::kScan;
        request = "SCAN " + KeyName(p.key) + " " + std::to_string(kScanLimit);
      } else if (roll < kMixScanShare + kMixSetShare) {
        p.op = Op::kSet;
        p.version = ++model.issued[p.key];
        request = "SET " + KeyName(p.key) + " x" + std::to_string(p.key) + "." +
                  std::to_string(p.version);
      } else {
        p.version = model.acked[p.key];
        request = "GET " + KeyName(p.key);
      }
      digest->Add(static_cast<std::uint64_t>(due - start));
      digest->Add(request);
      if (spans != nullptr && r.replay.size() < kReplayRequests) {
        r.replay.push_back(request);
      }
      r.attempted++;
      if (due >= window_start) {
        r.late.Add(now - due);
        r.late_count += now - due > kLateNs ? 1 : 0;
      }
      if (conn.dead || conn.pending.size() >= kPipelineCap) {
        r.failed++;  // shed: the connection cannot take more
      } else {
        const std::int64_t t_enc0 = NowNs();
        conn.out += EncodeFrame(request);
        if (spans != nullptr && due >= window_start) {
          spans->Add("frame.encode", t_enc0, NowNs(), p.req_id, p.req_id);
        }
        conn.pending.push_back(p);
      }
      seq++;
      due += next_gap();
    }
    bool busy = false;
    for (OpenConn& conn : conns) {
      if (conn.dead) {
        continue;
      }
      busy = busy || !conn.pending.empty();
      while (conn.out_off < conn.out.size()) {
        const std::int64_t t_send = NowNs();
        const ssize_t n = send(conn.fd, conn.out.data() + conn.out_off,
                               conn.out.size() - conn.out_off, MSG_NOSIGNAL | MSG_DONTWAIT);
        if (n > 0) {
          if (spans != nullptr && in_window) {
            spans->Add("client.send", t_send, NowNs(), 0, SpanLog::kNoParent);
          }
          conn.out_off += static_cast<std::size_t>(n);
        } else {
          if (n < 0 && errno != EAGAIN && errno != EINTR) {
            conn.dead = true;
          }
          break;
        }
      }
      if (conn.out_off == conn.out.size()) {
        conn.out.clear();
        conn.out_off = 0;
      }
    }
    if (now >= window_end && (!busy || now >= window_end + kDrainNs)) {
      break;
    }
    const int ready = epoll_wait(ep, events, 8, 0);
    for (int e = 0; e < ready; e++) {
      OpenConn& conn = conns[events[e].data.u64];
      while (!conn.dead) {
        const std::int64_t t_read = NowNs();
        const ssize_t n = recv(conn.fd, buf, sizeof(buf), MSG_DONTWAIT);
        if (n <= 0) {
          if (n == 0 || (errno != EAGAIN && errno != EINTR)) {
            conn.dead = true;
          }
          break;
        }
        const std::int64_t t_got = NowNs();
        if (spans != nullptr && in_window) {
          spans->Add("client.recv", t_read, t_got, 0, SpanLog::kNoParent);
        }
        conn.decoder.Feed(buf, static_cast<std::size_t>(n));
        while (true) {
          const std::int64_t t_dec0 = NowNs();
          const FrameDecodeStatus status = conn.decoder.Next(&payload);
          if (status != FrameDecodeStatus::kFrame) {
            conn.dead = status == FrameDecodeStatus::kError;
            break;
          }
          const std::int64_t t_done = NowNs();
          if (conn.pending.empty()) {
            out->Wrong("reply without a request: \"" + payload.substr(0, 200) + "\"");
            continue;
          }
          const Pending p = conn.pending.front();
          conn.pending.pop_front();
          CheckMixReply(p, payload, &model, &r, out);
          if (p.due_ns >= window_start && p.due_ns < window_end) {
            r.latency.Add(p.due_ns, t_done - p.due_ns);
            measured_replies++;
            if (spans != nullptr) {
              spans->Add("frame.decode", t_dec0, t_done, p.req_id, p.req_id);
              spans->Add(p.op == Op::kGet   ? "kv.request.get"
                         : p.op == Op::kSet ? "kv.request.set"
                                            : "kv.request.scan",
                         p.due_ns, t_done, p.req_id, SpanLog::kNoParent, p.req_id);
            }
          }
        }
        if (static_cast<std::size_t>(n) < sizeof(buf)) {
          break;
        }
      }
    }
  }
  r.io_syscalls = rt->io_data_syscalls() - sys0;
  r.steals = rt->steals() - steals0;
  for (OpenConn& conn : conns) {
    r.failed += conn.pending.size();  // never answered
  }
  close(ep);
  r.measured_requests = measured_replies;
  r.measured_rps = static_cast<double>(measured_replies) / seconds;
  return r;
}

// CPU placement: the load generator gets the last allowed CPU to itself and
// the runtime's threads (workers, housekeeping, Run's caller) share the rest,
// so generator and server never compete for a CPU and the kernel's choice of
// placement does not change from run to run.
struct Placement {
  cpu_set_t server;
  cpu_set_t client;
  int client_cpu = -1;
};

Placement SplitCpus() {
  Placement p;
  CPU_ZERO(&p.server);
  CPU_ZERO(&p.client);
  if (sched_getaffinity(0, sizeof(p.server), &p.server) != 0) {
    return p;
  }
  for (int c = 0; c < CPU_SETSIZE; c++) {
    if (CPU_ISSET(c, &p.server)) {
      p.client_cpu = c;
    }
  }
  CPU_CLR(p.client_cpu, &p.server);
  CPU_SET(p.client_cpu, &p.client);
  return p;
}

// Parks the calling uthread until `fd` becomes readable (the client thread
// signals completion through a pipe), keeping the worker serving meanwhile.
SKYLOFT_MAY_SWITCH void WaitReadable(Runtime* rt, int fd) {
  skyloft::IoEngine* engine = rt->io_engine(0);
  skyloft::IoHandle* handle = engine->Register(fd);
  char c = 0;
  while (read(fd, &c, 1) != 1) {
    skyloft::WaitForReadable(handle);
  }
  engine->Deregister(handle);  // closes fd
}

struct KvWorkload {
  int workers;
  int connections;
  bool open_loop;
};

Outcome RunKv(const KvWorkload& w, const RunSpec& spec, SpanLog* spans) {
  Outcome out;
  Digest digest;
  std::vector<std::uint32_t> stream;
  if (!w.open_loop) {
    // The hot subset and the request stream both come from the seed.
    Rng rng(Rng::DeriveStream(spec.seed, 1));
    std::vector<std::uint32_t> hot(kHotKeys);
    for (std::uint32_t& k : hot) {
      k = static_cast<std::uint32_t>(rng.NextBelow(kKeys));
    }
    stream.resize(kClosedStream);
    for (std::uint32_t& k : stream) {
      k = hot[rng.NextBelow(kHotKeys)];
      digest.Add(k);
    }
  } else {
    Order();  // build the SCAN model outside the timed set-up
  }

  // Runtime threads inherit the caller's affinity, so the caller takes the
  // server CPUs for the run and gets its own mask back afterwards.
  const Placement placement = SplitCpus();
  cpu_set_t caller_mask;
  const bool pinned = placement.client_cpu >= 0 &&
                      sched_getaffinity(0, sizeof(caller_mask), &caller_mask) == 0 &&
                      sched_setaffinity(0, sizeof(placement.server), &placement.server) == 0;
  out.meta["client_cpu"] = pinned ? std::to_string(placement.client_cpu) : "unpinned";
  skyloft::RuntimeOptions options;
  options.workers = w.workers;
  options.io_engine = true;
  Runtime rt(options);
  ClientResult r;
  rt.Run([&] {
    skyloft::KvServerNetOptions server_options;
    server_options.udp = false;
    server_options.preload_keys = static_cast<int>(kKeys);
    std::vector<double> setup_s;
    std::vector<double> preload_s;
    std::unique_ptr<KvServerNet> server;
    std::vector<int> fds;
    for (int rep = 0; rep < spec.setup_reps; rep++) {
      if (server != nullptr) {
        CloseAll(&fds);
        server->Stop();
        server.reset();
      }
      const std::int64_t t0 = NowNs();
      server = std::make_unique<KvServerNet>(&rt, server_options);
      server->Start();
      const std::int64_t t1 = NowNs();
      fds = Connect(server->tcp_port(), w.connections);
      while (server->open_connections() < w.connections) {
        Runtime::Yield();
      }
      const std::int64_t t2 = NowNs();
      setup_s.push_back(static_cast<double>(t2 - t0) / 1e9);
      preload_s.push_back(static_cast<double>(t1 - t0) / 1e9);
      if (rep == 0) {
        // Later set-ups may preload on another worker thread, whose malloc
        // arena does not reuse the first store's freed memory.
        out.e2e["rss_mb"] = PeakRssMb();
      }
    }
    out.e2e["setup_s"] = Median(setup_s);
    out.layer["kv.preload_s"] = Median(preload_s);
    out.meta["stripes"] = std::to_string(server->store().stripes());
    const skyloft::IoEngine* engine = rt.io_engine(0);
    out.meta["io_backend"] = !engine->using_io_uring() ? "epoll"
                             : engine->completion()    ? "io_uring+completion"
                                                       : "io_uring";

    int done[2];
    if (pipe2(done, O_CLOEXEC) != 0) {
      std::fprintf(stderr, "perfbench: pipe2 failed: %s\n", std::strerror(errno));
      std::exit(2);
    }
    std::thread client([&] {
      if (pinned) {
        pthread_setaffinity_np(pthread_self(), sizeof(placement.client), &placement.client);
      }
      r = w.open_loop ? RunOpenLoop(&rt, fds, server->store().stripes(), spec.seed, spec.seconds,
                                    spans, &out, &digest)
                      : RunClosedLoop(&rt, fds[0], stream, spec.seconds, spans, &out);
      const char c = 1;
      while (write(done[1], &c, 1) != 1 && errno == EINTR) {
      }
    });
    WaitReadable(&rt, done[0]);
    client.join();
    close(done[1]);
    CloseAll(&fds);
    server->Stop();

    skyloft::KvStripedStore& store = server->store();
    const auto& get = store.latency(KvOpKind::kGet);
    const auto& set = store.latency(KvOpKind::kSet);
    const auto& scan = store.latency(KvOpKind::kScan);
    if (w.open_loop) {
      out.layer["kv.mix.get_ns.p50"] = static_cast<double>(get.Percentile(0.5));
      out.layer["kv.set_ns.p50"] = static_cast<double>(set.Percentile(0.5));
      out.layer["kv.set_ns.p99"] = static_cast<double>(set.Percentile(0.99));
      out.layer["kv.scan_ns.p50"] = static_cast<double>(scan.Percentile(0.5));
      out.layer["kv.scan_ns.p99"] = static_cast<double>(scan.Percentile(0.99));
    } else {
      out.layer["kv.get_ns.p50"] = static_cast<double>(get.Percentile(0.5));
      out.layer["kv.get_ns.p99"] = static_cast<double>(get.Percentile(0.99));
    }
    out.meta["server_requests"] = std::to_string(server->tcp_requests());
    out.meta["frame_errors"] = std::to_string(server->frame_errors());
    r.failed += server->frame_errors() + server->peer_resets();

    if (spans != nullptr) {
      // Direct Serve() replay of the same request stream, timed call by call.
      if (!w.open_loop) {
        for (std::size_t i = 0; i < kReplayRequests; i++) {
          r.replay.push_back("GET " + KeyName(stream[i % stream.size()]));
        }
      }
      for (const std::string& request : r.replay) {
        const char* span = request.rfind("GET ", 0) == 0    ? "kv.serve.get"
                           : request.rfind("SCAN ", 0) == 0 ? "kv.serve.scan"
                                                            : "kv.serve.set";
        const std::int64_t t0 = NowNs();
        const std::string reply = store.Serve(request, 0);
        spans->Add(span, t0, NowNs(), 0, SpanLog::kNoParent);
        if (reply.empty() || reply == "ERROR") {
          out.Wrong("Serve(\"" + request + "\") returned \"" + reply + "\"");
        }
      }
    }
    server.reset();
  });
  if (pinned) {
    sched_setaffinity(0, sizeof(caller_mask), &caller_mask);
  }

  out.attempted = r.attempted;
  out.failed = r.failed;
  out.e2e["p50_us"] = r.latency.Percentile(0.5) / 1e3;
  out.e2e["p99_us"] = r.latency.Percentile(0.99) / 1e3;
  out.e2e["p999_us"] = r.latency.all().Percentile(0.999) / 1e3;
  out.e2e["throughput_per_s"] = w.open_loop ? r.measured_rps : Median(r.window_rps);
  out.meta["latency_samples"] = std::to_string(r.latency.all().size());
  out.meta["run_p99_us"] = std::to_string(r.latency.all().Percentile(0.99) / 1e3);
  out.meta["input_digest"] = digest.Hex();
  const double reqs = static_cast<double>(std::max<std::uint64_t>(1, r.measured_requests));
  if (w.open_loop) {
    out.meta["offered_rps"] = std::to_string(kMixRateRps);
    out.meta["late_us_max"] = std::to_string(r.late.Max() / 1e3);
    out.meta["late_frac"] =
        std::to_string(static_cast<double>(r.late_count) /
                       static_cast<double>(std::max<std::size_t>(1, r.late.size())));
  }
  if (spans != nullptr) {
    if (w.open_loop) {
      out.layer["client.late_us.max"] = r.late.Max() / 1e3;
      out.layer["client.late_frac"] =
          static_cast<double>(r.late_count) /
          static_cast<double>(std::max<std::size_t>(1, r.late.size()));
      out.layer["io.mix.syscalls_per_req"] = static_cast<double>(r.io_syscalls) / reqs;
      out.layer["kv.replay.scan_ns.p50"] = spans->DurationPercentile("kv.serve.scan", 0.5);
      out.layer["kv.scan_keys_per_reply"] =
          static_cast<double>(r.scan_keys) /
          static_cast<double>(std::max<std::uint64_t>(1, r.scan_replies));
    } else {
      out.layer["client.send_ns.p50"] = spans->DurationPercentile("client.send", 0.5);
      out.layer["client.recv_ns.p50"] = spans->DurationPercentile("client.recv", 0.5);
      out.layer["frame.encode_ns.p50"] = spans->DurationPercentile("frame.encode", 0.5);
      out.layer["frame.decode_ns.p50"] = spans->DurationPercentile("frame.decode", 0.5);
      out.layer["io.syscalls_per_req"] = static_cast<double>(r.io_syscalls) / reqs;
      out.layer["rt.steals_per_req"] = static_cast<double>(r.steals) / reqs;
      out.layer["kv.replay.get_ns.p50"] = spans->DurationPercentile("kv.serve.get", 0.5);
    }
  }
  return out;
}

}  // namespace

Outcome RunKvGetClosed(const RunSpec& spec, SpanLog* spans) {
  return RunKv({2, 1, false}, spec, spans);
}

Outcome RunKvMixOpen(const RunSpec& spec, SpanLog* spans) {
  return RunKv({1, 4, true}, spec, spans);
}

}  // namespace perfbench
