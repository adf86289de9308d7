// Tests for the networked KV server (src/apps/kv_server_net) over real
// loopback sockets, on whichever backend the build's engines armed (epoll,
// or io_uring completions):
//   - pipelined GET/SET/SCAN frames in one TCP write, replies in order
//   - a half-close after a pipelined batch: every reply precedes the FIN
//   - a peer reset counted once in peer_resets
//   - a UDP GET round trip
//   - a malformed datagram counted in frame_errors and dropped
//   - SETs of new keys racing SCANs on the store's ordered key index
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
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

TEST(KvStripedStoreRaceTest, NewKeySetsRacingScansStayOrdered) {
  constexpr int kNewKeys = 1000;
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
  // Every SET was acknowledged, so one SCAN lists every new key, then the
  // preloaded ones.
  std::vector<std::pair<std::string, std::string>> pairs;
  ASSERT_TRUE(ParseScan(store.Serve("SCAN new 4096", 0), &pairs));
  ASSERT_EQ(pairs.size(), static_cast<std::size_t>(kNewKeys + 100));
  for (int i = 0; i < kNewKeys; i++) {
    EXPECT_EQ(pairs[static_cast<std::size_t>(i)].first, new_key(i));
  }
}

}  // namespace
}  // namespace skyloft
