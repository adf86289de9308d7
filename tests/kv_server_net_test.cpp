// Tests for the networked KV server (src/apps/kv_server_net) over real
// loopback sockets:
//   - pipelined GET/SET/SCAN frames in one TCP write, replies in order
//   - a half-close after a pipelined batch: every reply precedes the FIN
//   - a peer reset counted once in peer_resets
//   - a UDP GET round trip
//   - a malformed datagram counted in frame_errors and dropped
//   - SETs of new keys racing SCANs on the store's ordered key index
//   - the preload: every "user<i>" key once, in order, with its value
//   - 10,000 concurrent connections, each with its own parked handler
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/apps/kv_server_net.h"
#include "src/net/frame.h"
#include "src/runtime/io_engine.h"
#include "src/runtime/sync.h"
#include "src/runtime/uthread.h"

namespace skyloft {
namespace {

sockaddr_in Loopback(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

int ConnectTcp(std::uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  const sockaddr_in addr = Loopback(port);
  EXPECT_EQ(connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

void WriteAll(int fd, const std::string& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = write(fd, bytes.data() + off, bytes.size() - off);
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }
}

// Reads reply frames until `count` arrived or the stream ends.
std::vector<std::string> ReadReplies(int fd, std::size_t count) {
  FrameDecoder decoder;
  std::vector<std::string> replies;
  char buf[4096];
  while (replies.size() < count) {
    std::string payload;
    if (decoder.Next(&payload) == FrameDecodeStatus::kFrame) {
      replies.push_back(payload);
      continue;
    }
    const ssize_t n = read(fd, buf, sizeof(buf));
    if (n <= 0) {
      break;
    }
    decoder.Feed(buf, static_cast<std::size_t>(n));
  }
  return replies;
}

// Runs a server on a fresh 2-worker runtime while `client` (a plain OS
// thread) talks to it; `check` then reads the server's counters before Stop.
void WithServer(const std::function<void(const KvServerNet&)>& client,
                const std::function<void(const KvServerNet&)>& check = nullptr) {
  Runtime rt(RuntimeOptions{.workers = 2, .io_engine = true});
  rt.Run([&] {
    KvServerNetOptions options;
    options.preload_keys = 100;
    KvServerNet server(&rt, options);
    server.Start();
    std::atomic<bool> done{false};
    std::thread thread([&] {
      client(server);
      done.store(true, std::memory_order_release);
    });
    while (!done.load(std::memory_order_acquire)) {
      Runtime::SleepFor(500);  // keep the worker polling its engine
    }
    thread.join();
    if (check) {
      check(server);
    }
    server.Stop();
  });
}

// Polls a server counter from the client thread until it reaches `want`.
bool AwaitCount(const std::function<std::uint64_t()>& value, std::uint64_t want) {
  for (int i = 0; i < 5000 && value() < want; i++) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return value() >= want;
}

TEST(KvServerNetTest, PipelinedTcpBatchRepliesInOrder) {
  WithServer([](const KvServerNet& server) {
    const int fd = ConnectTcp(server.tcp_port());
    const std::string batch = EncodeFrame("GET user1") + EncodeFrame("SET fresh v1") +
                              EncodeFrame("GET fresh") + EncodeFrame("SCAN user1 2") +
                              EncodeFrame("GET missing");
    WriteAll(fd, batch);
    const std::vector<std::string> replies = ReadReplies(fd, 5);
    EXPECT_EQ(replies, (std::vector<std::string>{"VALUE profile-1", "STORED", "VALUE v1",
                                                 "user1=profile-1;user10=profile-10;",
                                                 "NOT_FOUND"}));
    close(fd);
  });
}

TEST(KvServerNetTest, HalfCloseDeliversEveryReplyBeforeFin) {
  constexpr int kRequests = 2000;
  WithServer([](const KvServerNet& server) {
    const int fd = ConnectTcp(server.tcp_port());
    std::string batch;
    for (int i = 0; i < kRequests; i++) {
      batch += EncodeFrame("GET user" + std::to_string(i % 100));
    }
    WriteAll(fd, batch);
    ASSERT_EQ(shutdown(fd, SHUT_WR), 0);
    const std::vector<std::string> replies = ReadReplies(fd, kRequests);
    ASSERT_EQ(replies.size(), static_cast<std::size_t>(kRequests));
    for (int i = 0; i < kRequests; i++) {
      EXPECT_EQ(replies[i], "VALUE profile-" + std::to_string(i % 100));
    }
    char byte;
    EXPECT_EQ(read(fd, &byte, 1), 0) << "the FIN follows the last reply";
    close(fd);
  });
}

TEST(KvServerNetTest, PeerResetCountsOnce) {
  WithServer(
      [](const KvServerNet& server) {
        const int fd = ConnectTcp(server.tcp_port());
        WriteAll(fd, EncodeFrame("GET user2"));
        ASSERT_EQ(ReadReplies(fd, 1), std::vector<std::string>{"VALUE profile-2"});
        const linger lg{1, 0};
        ASSERT_EQ(setsockopt(fd, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg)), 0);
        close(fd);  // RST
        EXPECT_TRUE(AwaitCount([&] { return server.peer_resets(); }, 1));
      },
      [](const KvServerNet& server) {
        EXPECT_EQ(server.peer_resets(), 1u);
        EXPECT_EQ(server.frame_errors(), 0u);
      });
}

// Sends one datagram to the server's UDP port; returns the reply payload
// when `expect_reply`.
std::string UdpExchange(int fd, std::uint16_t port, const std::string& datagram,
                        bool expect_reply) {
  const sockaddr_in addr = Loopback(port);
  EXPECT_EQ(sendto(fd, datagram.data(), datagram.size(), 0,
                   reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)),
            static_cast<ssize_t>(datagram.size()));
  if (!expect_reply) {
    return "";
  }
  std::uint8_t buf[4096];
  const ssize_t n = recvfrom(fd, buf, sizeof(buf), 0, nullptr, nullptr);
  EXPECT_GT(n, 0);
  std::string payload;
  EXPECT_EQ(DecodeFrame(buf, static_cast<std::size_t>(n), &payload), FrameDecodeStatus::kFrame);
  return payload;
}

TEST(KvServerNetTest, UdpGetRoundTrip) {
  WithServer(
      [](const KvServerNet& server) {
        const int fd = socket(AF_INET, SOCK_DGRAM, 0);
        ASSERT_GE(fd, 0);
        EXPECT_EQ(UdpExchange(fd, server.udp_port(), EncodeFrame("GET user5"), true),
                  "VALUE profile-5");
        close(fd);
      },
      [](const KvServerNet& server) { EXPECT_EQ(server.udp_requests(), 1u); });
}

TEST(KvServerNetTest, MalformedDatagramIsCountedAndDropped) {
  WithServer(
      [](const KvServerNet& server) {
        const int fd = socket(AF_INET, SOCK_DGRAM, 0);
        ASSERT_GE(fd, 0);
        UdpExchange(fd, server.udp_port(), "not a frame", false);
        EXPECT_TRUE(AwaitCount([&] { return server.frame_errors(); }, 1));
        // Dropped, not fatal: the loop still serves the next datagram.
        EXPECT_EQ(UdpExchange(fd, server.udp_port(), EncodeFrame("GET user7"), true),
                  "VALUE profile-7");
        close(fd);
      },
      [](const KvServerNet& server) {
        EXPECT_EQ(server.frame_errors(), 1u);
        EXPECT_EQ(server.udp_requests(), 1u);
      });
}

// What the forked client reports back to the test.
struct ManyConnReport {
  int connected = 0;  // connect() succeeded
  int replied = 0;    // the GET's exact reply frame came back
};

// Reads `len` bytes from `fd` into `out` through the runtime's I/O engine,
// parking the uthread until they arrive; returns how many came before end
// of stream.
SKYLOFT_MAY_SWITCH std::size_t ReadParked(IoHandle* handle, int fd, void* out, std::size_t len) {
  auto* bytes = static_cast<unsigned char*>(out);
  std::size_t got = 0;
  while (got < len) {
    const ssize_t n = read(fd, bytes + got, len - got);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
    } else if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
      break;
    } else {
      WaitForReadable(handle);
    }
  }
  return got;
}

// The client half of ServesTenThousandConnections, run in a forked child.
// It makes only syscalls, on buffers the parent filled before fork(): it
// waits for the server's port, opens `fds.size()` connections, sends one GET
// on each, reads every reply, reports, and holds the connections open until
// the parent closes `port_fd`.
[[noreturn]] void ManyConnClient(int port_fd, int report_fd, std::vector<int>& fds,
                                 const std::string& request, const std::string& reply,
                                 std::string& buf) {
  ManyConnReport report;
  std::uint16_t port = 0;
  if (read(port_fd, &port, sizeof(port)) != sizeof(port)) {
    _exit(1);
  }
  const sockaddr_in addr = Loopback(port);
  const timeval timeout{10, 0};  // a lost reply fails the count, not the run
  for (int& fd : fds) {
    fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0 || connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
      break;
    }
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    report.connected++;
  }
  for (int i = 0; i < report.connected; i++) {
    if (write(fds[i], request.data(), request.size()) != static_cast<ssize_t>(request.size())) {
      break;
    }
  }
  for (int i = 0; i < report.connected; i++) {
    std::size_t got = 0;
    ssize_t n = 1;
    while (got < reply.size() && (n = read(fds[i], buf.data() + got, reply.size() - got)) > 0) {
      got += static_cast<std::size_t>(n);
    }
    if (got == reply.size() && buf.compare(0, got, reply) == 0) {
      report.replied++;
    }
  }
  const bool sent = write(report_fd, &report, sizeof(report)) == sizeof(report);
  char byte;
  while (read(port_fd, &byte, 1) > 0) {
  }
  _exit(sent ? 0 : 1);
}

// The server holds 10,000 connections at once, one parked handler uthread
// each, on 2 workers with 16 KB stacks. The client runs in a child process
// because the fd limit is per process and each connection costs an fd on
// both sides. The child is forked before the runtime starts any thread.
TEST(KvServerNetTest, ServesTenThousandConnections) {
#ifdef __SANITIZE_THREAD__
  // TSan registers every uthread stack as a fiber in its thread registry,
  // which dies past 8,128 threads and fibers.
  constexpr int kConns = 4'000;
#else
  constexpr int kConns = 10'000;
#endif
  // Each side holds one fd per connection, plus listeners, pipes and epoll.
  constexpr rlim_t kFdsNeeded = kConns + 1024;
  rlimit fd_limit{};
  ASSERT_EQ(getrlimit(RLIMIT_NOFILE, &fd_limit), 0);
  if (fd_limit.rlim_cur < kFdsNeeded && fd_limit.rlim_max >= kFdsNeeded) {
    fd_limit.rlim_cur = kFdsNeeded;
    ASSERT_EQ(setrlimit(RLIMIT_NOFILE, &fd_limit), 0);
  }
  ASSERT_GE(fd_limit.rlim_cur, kFdsNeeded) << "the fd limit is too low for this test";
  const std::string request = EncodeFrame("GET user1");
  const std::string reply = EncodeFrame("VALUE profile-1");
  std::vector<int> client_fds(kConns, -1);
  std::string client_buf(reply.size(), '\0');
  int to_child[2];
  int from_child[2];
  ASSERT_EQ(pipe(to_child), 0);
  ASSERT_EQ(pipe(from_child), 0);
  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    close(to_child[1]);
    close(from_child[0]);
    ManyConnClient(to_child[0], from_child[1], client_fds, request, reply, client_buf);
  }
  close(to_child[0]);
  close(from_child[1]);

  ManyConnReport report;
  std::size_t report_bytes = 0;
  std::int64_t open_while_held = 0;
  std::uint64_t accepted = 0;
  std::uint64_t frame_errors = 0;
  Runtime rt(RuntimeOptions{.workers = 2, .stack_size = 16 * 1024, .io_engine = true});
  rt.Run([&] {
    KvServerNetOptions options;
    options.udp = false;
    options.preload_keys = 100;
    KvServerNet server(&rt, options);
    server.Start();
    const std::uint16_t port = server.tcp_port();
    IoHandle* from = rt.io_engine(0)->Register(from_child[0]);
    if (write(to_child[1], &port, sizeof(port)) == sizeof(port)) {
      report_bytes = ReadParked(from, from_child[0], &report, sizeof(report));
    }
    // Every reply is in, so every connection's handler has served its GET
    // and parked on the next read.
    open_while_held = server.open_connections();
    close(to_child[1]);  // releases the child, which closes every connection
    char byte;
    ReadParked(from, from_child[0], &byte, 1);  // end of stream: the child exited
    rt.io_engine(0)->Deregister(from);          // closes from_child[0]
    accepted = server.tcp_connections();
    frame_errors = server.frame_errors();
    server.Stop();
  });
  int status = 0;
  ASSERT_EQ(waitpid(child, &status, 0), child);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  ASSERT_EQ(report_bytes, sizeof(report));
  EXPECT_EQ(report.connected, kConns);
  EXPECT_EQ(report.replied, kConns);
  EXPECT_EQ(open_while_held, kConns);
  EXPECT_EQ(accepted, static_cast<std::uint64_t>(kConns));
  EXPECT_EQ(frame_errors, 0u);
}

// Splits a SCAN reply "k1=v1;k2=v2;" into (key, value) pairs; false if the
// reply is not of that shape.
bool ParseScan(const std::string& reply, std::vector<std::pair<std::string, std::string>>* pairs) {
  pairs->clear();
  std::size_t pos = 0;
  while (pos < reply.size()) {
    const std::size_t eq = reply.find('=', pos);
    const std::size_t semi = reply.find(';', pos);
    if (eq == std::string::npos || semi == std::string::npos || eq > semi) {
      return false;
    }
    pairs->emplace_back(reply.substr(pos, eq - pos), reply.substr(eq + 1, semi - eq - 1));
    pos = semi + 1;
  }
  return true;
}

// Every pair at or after `start`, through SCANs of 4096 (the most a reply
// holds): each next SCAN starts at the last key listed and skips it.
void ScanAll(KvStripedStore& store, std::string start,
             std::vector<std::pair<std::string, std::string>>* all) {
  all->clear();
  std::vector<std::pair<std::string, std::string>> pairs;
  do {
    const std::string reply = store.Serve("SCAN " + start + " 4096", 0);
    if (reply == "EMPTY") {
      return;
    }
    ASSERT_TRUE(ParseScan(reply, &pairs)) << reply.substr(0, 100);
    all->insert(all->end(), pairs.begin() + (all->empty() ? 0 : 1), pairs.end());
    start = pairs.back().first;
  } while (pairs.size() == 4096);
}

TEST(KvStripedStoreRaceTest, NewKeySetsRacingScansStayOrdered) {
  // The 8-byte new keys fill a key index leaf at kLeafBytes / 10 keys; 12
  // leaves' worth make leaves split while the SCANs run.
  constexpr int kNewKeys = 12 * static_cast<int>(KeyIndex::kLeafBytes / 10);
  constexpr int kWriters = 2;
  constexpr int kScanners = 2;
  constexpr std::size_t kLimit = 16;
  auto new_key = [](int i) {
    char key[16];
    std::snprintf(key, sizeof(key), "new%05d", i);
    return std::string(key);
  };
  Runtime rt(RuntimeOptions{.workers = 2});
  KvStripedStore store(rt.workers());
  for (int i = 0; i < 100; i++) {
    const std::string key = "user" + std::to_string(i);
    store.Preload(key, "val-" + key);
  }
  std::atomic<int> writers_left{kWriters};
  rt.Run([&] {
    std::vector<UThread*> children;
    for (int w = 0; w < kWriters; w++) {
      children.push_back(Runtime::Spawn([&, w] {
        for (int i = w; i < kNewKeys; i += kWriters) {
          const std::string key = new_key(i);
          EXPECT_EQ(store.Serve("SET " + key + " val-" + key, static_cast<std::uint64_t>(w)),
                    "STORED");
          Runtime::Yield();
        }
        writers_left.fetch_sub(1);
      }));
    }
    for (int s = 0; s < kScanners; s++) {
      children.push_back(Runtime::Spawn([&, s] {
        std::vector<std::pair<std::string, std::string>> pairs;
        for (int round = 0; writers_left.load() > 0 || round < 100; round++) {
          // Alternate the bare prefix with starts that walk the new keys.
          // The 100 preloaded "user" keys sort after every new key, so each
          // reply holds exactly kLimit pairs.
          const std::string start = round % 2 == 0 ? "new" : new_key((round * 37) % kNewKeys);
          const std::string reply =
              store.Serve("SCAN " + start + " " + std::to_string(kLimit),
                          static_cast<std::uint64_t>(kWriters + s));
          bool ok = ParseScan(reply, &pairs) && pairs.size() == kLimit;
          for (std::size_t i = 0; ok && i < pairs.size(); i++) {
            ok = pairs[i].first >= start && pairs[i].second == "val-" + pairs[i].first &&
                 (i == 0 || pairs[i - 1].first < pairs[i].first);
          }
          if (!ok) {
            ADD_FAILURE() << "SCAN " << start << " returned \"" << reply << "\"";
          }
          Runtime::Yield();
        }
      }));
    }
    for (UThread* c : children) {
      Runtime::Join(c);
    }
  });
  // Every SET was acknowledged, so SCANs from "new" list every new key, then
  // the preloaded ones.
  std::vector<std::pair<std::string, std::string>> all;
  ASSERT_NO_FATAL_FAILURE(ScanAll(store, "new", &all));
  ASSERT_EQ(all.size(), static_cast<std::size_t>(kNewKeys + 100));
  for (int i = 0; i < kNewKeys; i++) {
    EXPECT_EQ(all[static_cast<std::size_t>(i)].first, new_key(i));
  }
}

TEST(KvServerNetTest, PreloadHoldsEveryKeyInOrder) {
  // Start() preloads "user<i>" in key order, a walk of the decimal digit
  // trie; its turns at decade boundaries are where such a walk goes wrong.
  Runtime rt(RuntimeOptions{.workers = 1, .io_engine = true});
  rt.Run([&] {
    for (const int n : {0, 1, 9, 10, 11, 99, 100, 101, 1'000, 1'001, 123'456}) {
      KvServerNetOptions options;
      options.udp = false;
      options.preload_keys = n;
      KvServerNet server(&rt, options);
      server.Start();
      std::vector<std::pair<std::string, std::string>> all;
      ScanAll(server.store(), "", &all);
      server.Stop();
      std::vector<std::string> want;
      for (int i = 0; i < n; i++) {
        want.push_back("user" + std::to_string(i));
      }
      std::sort(want.begin(), want.end());
      ASSERT_EQ(all.size(), want.size()) << n;
      for (std::size_t i = 0; i < all.size(); i++) {
        ASSERT_EQ(all[i].first, want[i]) << n;
        ASSERT_EQ(all[i].second, "profile-" + want[i].substr(4)) << n;
      }
    }
  });
}

}  // namespace
}  // namespace skyloft
