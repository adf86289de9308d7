// A real networked KV server on the Skyloft host runtime.
//
// The serving path lives in src/apps/kv_server_net: per-worker epoll engine
// cores, SO_REUSEPORT listener sharding, one handler uthread per TCP
// connection, frame-codec requests answered with one send per pipelined
// batch. This main just stands the server up on loopback, drives it with a
// few closed-loop client threads over real TCP sockets (plus a UDP spot
// check), and dumps the metrics registry — per-op-kind service latencies,
// preemption/steal counters — as JSON. For the measured sweep, see bench/bench_kv_server.
//
//   ./build/examples/kv_server [workers] [clients] [requests_per_client]
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "src/apps/kv_server_net.h"
#include "src/base/metrics.h"
#include "src/net/frame.h"
#include "src/runtime/uthread.h"

using skyloft::FrameDecoder;
using skyloft::FrameDecodeStatus;
using skyloft::KvServerNet;
using skyloft::KvServerNetOptions;
using skyloft::Runtime;
using skyloft::RuntimeOptions;

namespace {

int DialTcp(std::uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  return fd;
}

// Blocking request/response round trip over an established framed stream.
std::string Call(int fd, FrameDecoder* decoder, const std::string& request) {
  const std::string wire = skyloft::EncodeFrame(request);
  if (write(fd, wire.data(), wire.size()) != static_cast<ssize_t>(wire.size())) {
    return "DROP";
  }
  std::string payload;
  char buf[4096];
  while (decoder->Next(&payload) != FrameDecodeStatus::kFrame) {
    if (decoder->poisoned()) {
      return "DROP";
    }
    const ssize_t n = read(fd, buf, sizeof(buf));
    if (n <= 0) {
      return "DROP";
    }
    decoder->Feed(buf, static_cast<std::size_t>(n));
  }
  return payload;
}

void ClientLoop(std::uint16_t port, int id, int requests, std::atomic<int>* done) {
  const int fd = DialTcp(port);
  if (fd < 0) {
    std::fprintf(stderr, "client %d: connect failed\n", id);
    std::abort();
  }
  FrameDecoder decoder;
  unsigned rng = static_cast<unsigned>(id) * 2654435761u + 1;
  for (int r = 0; r < requests; r++) {
    rng = rng * 1664525u + 1013904223u;
    const unsigned roll = rng % 1000;
    const std::string key = "user" + std::to_string(rng % 10'000);
    std::string request;
    if (roll < 2) {
      request = "SCAN user 64";  // rare heavy range query (RocksDB-style)
    } else if (roll < 4) {
      request = "SET " + key + " updated";
    } else {
      request = "GET " + key;  // USR mix: overwhelmingly GETs
    }
    const std::string reply = Call(fd, &decoder, request);
    if (reply == "ERROR" || reply == "DROP") {
      std::fprintf(stderr, "client %d: bad reply for %s\n", id, request.c_str());
      std::abort();
    }
  }
  close(fd);
  done->fetch_add(1, std::memory_order_release);
}

// One framed datagram round trip, exercising the UDP serving path.
bool UdpSpotCheck(std::uint16_t port) {
  const int fd = socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) {
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  const std::string wire = skyloft::EncodeFrame("GET user1");
  sendto(fd, wire.data(), wire.size(), 0, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  std::uint8_t buf[4096];
  const ssize_t n = recv(fd, buf, sizeof(buf), 0);
  close(fd);
  std::string payload;
  return n > 0 &&
         skyloft::DecodeFrame(buf, static_cast<std::size_t>(n), &payload) ==
             FrameDecodeStatus::kFrame &&
         payload == "VALUE profile-1";
}

}  // namespace

int main(int argc, char** argv) {
  const int workers = argc > 1 ? std::atoi(argv[1]) : 4;
  const int clients = argc > 2 ? std::atoi(argv[2]) : 16;
  const int requests = argc > 3 ? std::atoi(argv[3]) : 5000;

  Runtime rt(RuntimeOptions{
      .workers = workers, .preempt_period_us = 1000, .io_engine = true});
  std::uint64_t served = 0;
  bool udp_ok = false;
  double secs = 0.0;
  std::string metrics_json;

  rt.Run([&] {
    KvServerNet server(&rt, KvServerNetOptions{});
    server.Start();

    const auto t0 = std::chrono::steady_clock::now();
    std::atomic<int> done{0};
    std::vector<std::thread> load;
    for (int c = 0; c < clients; c++) {
      load.emplace_back(ClientLoop, server.tcp_port(), c, requests, &done);
    }
    // Wait runtime-aware: std::thread::join would block this worker pthread
    // and with it the engine core it polls — a serving slice would go dead.
    while (done.load(std::memory_order_acquire) < clients) {
      skyloft::Runtime::SleepFor(1000);
    }
    for (auto& t : load) {
      t.join();  // all finished; joins return immediately
    }
    secs = std::chrono::duration_cast<std::chrono::duration<double>>(
               std::chrono::steady_clock::now() - t0)
               .count();
    // The spot check also blocks in recv, so it too runs off-runtime.
    std::atomic<int> udp_done{0};
    std::thread udp_check([&] {
      udp_ok = UdpSpotCheck(server.udp_port());
      udp_done.store(1, std::memory_order_release);
    });
    while (udp_done.load(std::memory_order_acquire) == 0) {
      skyloft::Runtime::SleepFor(1000);
    }
    udp_check.join();

    served = server.tcp_requests();
    server.Stop();  // merges latency lanes into the registry-linked histograms
    // Snapshot while the server (and its metric group) is still alive.
    metrics_json = skyloft::MetricsRegistry::Global().ToJson();
  });

  std::printf("kv_server: %d workers, %d clients x %d requests over TCP (udp check: %s)\n",
              workers, clients, requests, udp_ok ? "ok" : "FAILED");
  std::printf("throughput: %.0f req/s (wall %.2fs)\n", static_cast<double>(served) / secs,
              secs);
  std::printf("%s\n", metrics_json.c_str());
  return udp_ok ? 0 : 1;
}
