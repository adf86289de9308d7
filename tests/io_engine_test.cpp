// Tests for the per-worker I/O engine cores (src/runtime/io_engine) and the
// WaitForReadable/WaitForWritable park/unpark primitives, over real loopback
// sockets and pipes:
//   - park/unpark racing concurrent readiness (edge-triggered latch contract)
//   - accept-batch overflow resupplying readiness via RelatchReadable
//   - peer reset (SO_LINGER 0 -> RST) landing mid-write
//   - peer hangup delivered while handler uthreads migrate across workers
//   - Interrupt() waking a parked waiter for shutdown
//   - Deregister with write interest still outstanding, then a late POLLOUT
//   - every readiness edge reaching Poll, including past a full epoll batch
//   - readiness and completion handles served side by side on one engine
//   - a readiness handle deregistered from a worker other than its home
//     engine's while a reader is parked on the same engine
//   - the completion-shaped data path (syscalls made by the engine in the
//     caller's context, sends continued on EPOLLOUT) and its syscall
//     accounting
// Runs under TSan/ASan in CI; every cross-thread handoff here is a real
// data-race candidate.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/metrics.h"
#include "src/runtime/io_engine.h"
#include "src/runtime/sync.h"
#include "src/runtime/uthread.h"

namespace skyloft {
namespace {

struct TcpPair {
  int client = -1;  // blocking, plain OS-thread end
  int server = -1;  // registered with an engine by the test
};

// Establishes a loopback TCP pair with ordinary blocking sockets (runs on
// the test's main thread, before/outside the runtime).
TcpPair MakeTcpPair() {
  TcpPair pair;
  const int lfd = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  EXPECT_EQ(bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  EXPECT_EQ(listen(lfd, 8), 0);
  socklen_t len = sizeof(addr);
  EXPECT_EQ(getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len), 0);

  pair.client = socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(pair.client, 0);
  EXPECT_EQ(connect(pair.client, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  pair.server = accept(lfd, nullptr, nullptr);
  EXPECT_GE(pair.server, 0);
  close(lfd);
  return pair;
}

// Runtime-aware join: spin on SleepFor so the worker keeps polling engines
// (std::thread::join on a uthread would block the worker pthread).
SKYLOFT_MAY_SWITCH void AwaitFlag(const std::atomic<bool>& flag) {
  while (!flag.load(std::memory_order_acquire)) {
    Runtime::SleepFor(500);
  }
}

TEST(IoEngineTest, RegisterSetsNonblockingAndDeregisterCloses) {
  Runtime rt(RuntimeOptions{.workers = 1, .io_engine = true});
  TcpPair pair = MakeTcpPair();
  rt.Run([&] {
    IoEngine* engine = rt.io_engine(0);
    IoHandle* handle = engine->Register(pair.server);
    ASSERT_NE(handle, nullptr);
    EXPECT_EQ(handle->fd, pair.server);
    EXPECT_NE(fcntl(pair.server, F_GETFL) & O_NONBLOCK, 0);
    engine->Deregister(handle);
    // Deregister owns the close; by the next engine poll the fd is retired.
    // The close is immediate even though the handle free is deferred.
    EXPECT_EQ(fcntl(pair.server, F_GETFD), -1);
    EXPECT_EQ(errno, EBADF);
  });
  close(pair.client);
}

TEST(IoEngineTest, ParkUnparkUnderConcurrentReadiness) {
  constexpr std::size_t kTotal = 256 * 1024;
  Runtime rt(RuntimeOptions{.workers = 2, .io_engine = true});
  TcpPair pair = MakeTcpPair();

  std::atomic<bool> reader_done{false};
  std::size_t received = 0;
  bool saw_eof = false;

  // Writer races readiness edges against the reader's park decisions: bursts
  // of varying sizes with occasional pauses, so some WaitForReadable calls
  // find the latch already set (fast path) and some must park.
  std::thread writer([&] {
    std::vector<char> chunk(4096, 'x');
    std::size_t sent = 0;
    unsigned rng = 12345;
    while (sent < kTotal) {
      rng = rng * 1664525u + 1013904223u;
      const std::size_t n = std::min(chunk.size() - (rng % 1024), kTotal - sent);
      ssize_t wrote = write(pair.client, chunk.data(), n);
      ASSERT_GT(wrote, 0);
      sent += static_cast<std::size_t>(wrote);
      if (rng % 7 == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(rng % 300));
      }
    }
    close(pair.client);  // clean FIN: reader must observe EOF after the bytes
  });

  rt.Run([&] {
    IoEngine* engine = rt.io_engine(0);
    IoHandle* handle = engine->Register(pair.server);
    ASSERT_NE(handle, nullptr);
    Runtime::Spawn([&, handle] {
      char buf[2048];
      while (true) {
        WaitForReadable(handle);
        bool eof = false;
        while (true) {
          const ssize_t n = read(handle->fd, buf, sizeof(buf));
          if (n > 0) {
            received += static_cast<std::size_t>(n);
            continue;
          }
          if (n == 0) {
            eof = true;
          }
          break;  // EAGAIN: drained; re-park for the next edge
        }
        if (eof) {
          saw_eof = true;
          break;
        }
      }
      engine->Deregister(handle);
      reader_done.store(true, std::memory_order_release);
    });
    AwaitFlag(reader_done);
  });
  writer.join();
  EXPECT_EQ(received, kTotal);
  EXPECT_TRUE(saw_eof);
}

TEST(IoEngineTest, AcceptBatchOverflowRelatchesReadiness) {
  constexpr int kClients = 24;
  constexpr int kBatch = 4;  // far smaller than the backlog burst
  Runtime rt(RuntimeOptions{.workers = 1, .io_engine = true});

  const int lfd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(listen(lfd, kClients + 8), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len), 0);

  // All clients connect before the acceptor runs: one readiness edge must
  // carry the whole backlog across multiple capped batches.
  std::vector<int> clients;
  for (int i = 0; i < kClients; i++) {
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    clients.push_back(fd);
  }

  int accepted = 0;
  int relatches = 0;
  rt.Run([&] {
    IoEngine* engine = rt.io_engine(0);
    IoHandle* handle = engine->Register(lfd);
    ASSERT_NE(handle, nullptr);
    while (accepted < kClients) {
      const unsigned ready = WaitForReadable(handle);
      ASSERT_EQ(ready & kIoError, 0u);
      int batch = 0;
      while (batch < kBatch) {
        const int fd = accept4(handle->fd, nullptr, nullptr, SOCK_NONBLOCK);
        if (fd < 0) {
          break;
        }
        close(fd);
        accepted++;
        batch++;
      }
      if (batch == kBatch) {
        // Batch cap hit with backlog left: restore the consumed edge or the
        // next WaitForReadable would sleep until a brand-new connection.
        IoEngine::RelatchReadable(handle);
        relatches++;
      }
    }
    engine->Deregister(handle);
  });
  EXPECT_EQ(accepted, kClients);
  EXPECT_GE(relatches, kClients / kBatch - 1);
  for (const int fd : clients) {
    close(fd);
  }
}

TEST(IoEngineTest, PeerResetMidWrite) {
  Runtime rt(RuntimeOptions{.workers = 1, .io_engine = true});
  TcpPair pair = MakeTcpPair();
  // Shrink both directions so the writer hits EAGAIN (and parks) quickly.
  const int small = 8 * 1024;
  setsockopt(pair.server, SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
  setsockopt(pair.client, SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));

  std::atomic<bool> writer_parked_once{false};
  std::atomic<bool> done{false};
  bool observed_reset = false;

  std::thread client([&] {
    // Let the server fill the pipe and park in WaitForWritable, then abort
    // the connection: SO_LINGER(0) close sends RST, not FIN.
    while (!writer_parked_once.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    linger lin{.l_onoff = 1, .l_linger = 0};
    setsockopt(pair.client, SOL_SOCKET, SO_LINGER, &lin, sizeof(lin));
    close(pair.client);
  });

  rt.Run([&] {
    IoEngine* engine = rt.io_engine(0);
    IoHandle* handle = engine->Register(pair.server);
    ASSERT_NE(handle, nullptr);
    Runtime::Spawn([&, handle] {
      const std::vector<char> chunk(64 * 1024, 'y');
      for (int i = 0; i < 4096 && !observed_reset; i++) {
        std::size_t off = 0;
        while (off < chunk.size()) {
          const ssize_t n = write(handle->fd, chunk.data() + off, chunk.size() - off);
          if (n > 0) {
            off += static_cast<std::size_t>(n);
            continue;
          }
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            writer_parked_once.store(true, std::memory_order_release);
            const unsigned ready = WaitForWritable(handle);
            if ((ready & (kIoError | kIoHup)) != 0) {
              observed_reset = true;  // RST surfaced through the engine
              break;
            }
            continue;
          }
          // RST surfaced through the write itself.
          EXPECT_TRUE(errno == ECONNRESET || errno == EPIPE) << std::strerror(errno);
          observed_reset = true;
          break;
        }
      }
      engine->Deregister(handle);
      done.store(true, std::memory_order_release);
    });
    AwaitFlag(done);
  });
  client.join();
  EXPECT_TRUE(observed_reset);
}

TEST(IoEngineTest, HupDeliveredWhileHandlersMigrate) {
  // Handlers are registered with worker 0's engine but run (and migrate)
  // wherever stealing takes them; the engine's Unpark must chase them across
  // workers. EPOLLHUP/RDHUP from the peer close is the wakeup under test.
  constexpr int kConns = 8;
  Runtime rt(RuntimeOptions{.workers = 2, .io_engine = true});
  std::vector<TcpPair> pairs;
  for (int i = 0; i < kConns; i++) {
    pairs.push_back(MakeTcpPair());
  }

  std::atomic<bool> all_done{false};
  std::atomic<int> eof_count{0};
  std::atomic<bool> close_now{false};

  std::thread closer([&] {
    while (!close_now.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    for (TcpPair& pair : pairs) {
      write(pair.client, "z", 1);  // one byte, then hangup
      close(pair.client);
    }
  });

  rt.Run([&] {
    IoEngine* engine = rt.io_engine(0);
    std::atomic<int> live{kConns};
    for (int i = 0; i < kConns; i++) {
      IoHandle* handle = engine->Register(pairs[static_cast<std::size_t>(i)].server);
      ASSERT_NE(handle, nullptr);
      Runtime::Spawn([&, handle] {
        char buf[64];
        bool eof = false;
        while (!eof) {
          WaitForReadable(handle);
          Runtime::Yield();  // invite migration between wakeup and drain
          while (true) {
            const ssize_t n = read(handle->fd, buf, sizeof(buf));
            if (n > 0) {
              continue;
            }
            if (n == 0) {
              eof = true;
            }
            break;
          }
        }
        engine->Deregister(handle);
        eof_count.fetch_add(1, std::memory_order_acq_rel);
        if (live.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          all_done.store(true, std::memory_order_release);
        }
      });
    }
    // Churn uthreads keep both workers busy so the work stealer actually
    // migrates handlers instead of leaving them on their wakeup worker.
    for (int i = 0; i < 4; i++) {
      Runtime::Spawn([&] {
        while (!all_done.load(std::memory_order_acquire)) {
          Runtime::Yield();
        }
      });
    }
    close_now.store(true, std::memory_order_release);
    AwaitFlag(all_done);
  });
  closer.join();
  EXPECT_EQ(eof_count.load(), kConns);
}

TEST(IoEngineTest, InterruptWakesParkedWaiter) {
  Runtime rt(RuntimeOptions{.workers = 1, .io_engine = true});
  TcpPair pair = MakeTcpPair();  // no traffic: the waiter can only be interrupted
  std::atomic<bool> done{false};
  unsigned observed = 0;
  rt.Run([&] {
    IoEngine* engine = rt.io_engine(0);
    IoHandle* handle = engine->Register(pair.server);
    ASSERT_NE(handle, nullptr);
    Runtime::Spawn([&, handle] {
      observed = WaitForReadable(handle);
      engine->Deregister(handle);
      done.store(true, std::memory_order_release);
    });
    Runtime::SleepFor(20'000);  // give the waiter time to park
    IoEngine::Interrupt(handle);
    AwaitFlag(done);
  });
  EXPECT_NE(observed & kIoError, 0u);
  close(pair.client);
}

TEST(IoEngineTest, InterruptedWriterDeregisterThenPeerDrain) {
  // A writer parked in WaitForWritable is woken by Interrupt — no write
  // event is consumed — and deregisters its handle. When the peer later
  // drains the socket the kernel reports writability against whatever
  // interest survived Deregister; it must never reach the freed handle
  // (ASan).
  Runtime rt(RuntimeOptions{.workers = 1, .io_engine = true});
  TcpPair pair = MakeTcpPair();
  const int small = 8 * 1024;
  setsockopt(pair.server, SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
  setsockopt(pair.client, SOL_SOCKET, SO_RCVBUF, &small, sizeof(small));

  std::atomic<bool> blocked{false};
  std::atomic<bool> done{false};
  rt.Run([&] {
    IoEngine* engine = rt.io_engine(0);
    IoHandle* handle = engine->Register(pair.server);
    ASSERT_NE(handle, nullptr);
    Runtime::Spawn([&, handle] {
      const std::vector<char> chunk(64 * 1024, 'w');
      unsigned ready = 0;
      while ((ready & (kIoError | kIoHup)) == 0) {
        const ssize_t n = write(handle->fd, chunk.data(), chunk.size());
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          blocked.store(true, std::memory_order_release);
          ready = WaitForWritable(handle);
          continue;
        }
        if (n < 0) {
          break;
        }
      }
      engine->Deregister(handle);
      done.store(true, std::memory_order_release);
    });
    AwaitFlag(blocked);
    Runtime::SleepFor(20'000);  // let the writer park with the poll pending
    IoEngine::Interrupt(handle);
    AwaitFlag(done);
    // Now drain the peer side: the send buffer empties and the kernel
    // reports writability against whatever interest survived Deregister.
    const int fl = fcntl(pair.client, F_GETFL, 0);
    ASSERT_EQ(fcntl(pair.client, F_SETFL, fl | O_NONBLOCK), 0);
    char buf[4096];
    while (read(pair.client, buf, sizeof(buf)) > 0) {
    }
    // Keep the engine polling long enough to reap any stale completion.
    Runtime::SleepFor(50'000);
  });
  close(pair.client);
}

TEST(IoEngineTest, PipeReadinessWorks) {
  // The engines accept any pollable fd, not just sockets; the kv bench
  // parks on a pipe from its forked client process exactly like this.
  Runtime rt(RuntimeOptions{.workers = 1, .io_engine = true});
  int pipefd[2];
  ASSERT_EQ(pipe(pipefd), 0);

  std::thread writer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const char msg[] = "ping";
    ASSERT_EQ(write(pipefd[1], msg, sizeof(msg)), static_cast<ssize_t>(sizeof(msg)));
    close(pipefd[1]);
  });

  std::string got;
  std::atomic<bool> done{false};
  rt.Run([&] {
    IoEngine* engine = rt.io_engine(0);
    IoHandle* handle = engine->Register(pipefd[0]);
    ASSERT_NE(handle, nullptr);
    Runtime::Spawn([&, handle] {
      char buf[64];
      while (true) {
        WaitForReadable(handle);
        const ssize_t n = read(handle->fd, buf, sizeof(buf));
        if (n > 0) {
          got.assign(buf, static_cast<std::size_t>(n));
          continue;
        }
        if (n == 0) {
          break;
        }
      }
      engine->Deregister(handle);
      done.store(true, std::memory_order_release);
    });
    AwaitFlag(done);
  });
  writer.join();
  EXPECT_EQ(got, std::string("ping\0", 5));
}

TEST(IoEngineTest, EveryReadinessEdgeReachesPoll) {
  // A standalone engine (no runtime; Poll runs on this thread) with more
  // ready pipes than one Poll drains: the events left behind by a full batch
  // raise no new wakeup, so the engine itself must come back for them. Then
  // a second edge on an already-drained pipe must surface too.
  constexpr int kPipes = 300;  // > the engine's 256-event batch
  IoEngine engine(0, IoEngineStats{});
  std::vector<int> write_ends;
  std::vector<IoHandle*> handles;
  for (int i = 0; i < kPipes; i++) {
    int pipefd[2];
    ASSERT_EQ(pipe(pipefd), 0);
    IoHandle* handle = engine.Register(pipefd[0]);
    ASSERT_NE(handle, nullptr);
    EXPECT_EQ(handle->mode, IoRegisterMode::kReadiness);
    handles.push_back(handle);
    write_ends.push_back(pipefd[1]);
  }
  for (const int fd : write_ends) {
    ASSERT_EQ(write(fd, "a", 1), 1);
  }
  const auto latched = [](IoHandle* h) {
    return (h->ready.load(std::memory_order_acquire) & kIoReadable) != 0;
  };
  const auto poll_until = [&](const auto& done) {
    for (int round = 0; round < 2000 && !done(); round++) {
      if (engine.Poll() == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    }
    return done();
  };
  EXPECT_TRUE(poll_until([&] {
    for (IoHandle* h : handles) {
      if (!latched(h)) {
        return false;
      }
    }
    return true;
  })) << "readiness left behind a full epoll batch never surfaced";

  // Consume the first edge, then raise a fresh one on a single pipe.
  char buf[8];
  for (IoHandle* h : handles) {
    ASSERT_EQ(read(h->fd, buf, sizeof(buf)), 1);
    h->ready.fetch_and(~kIoReadable, std::memory_order_acq_rel);
  }
  while (engine.Poll() > 0) {
  }
  ASSERT_EQ(write(write_ends[7], "b", 1), 1);
  EXPECT_TRUE(poll_until([&] { return latched(handles[7]); }))
      << "a new readiness edge never surfaced";
  for (int i = 0; i < kPipes; i++) {
    engine.Deregister(handles[static_cast<std::size_t>(i)]);
    close(write_ends[static_cast<std::size_t>(i)]);
  }
}

TEST(IoEngineTest, DeregisterFromForeignWorkerWhileReaderParked) {
  // One pipe per engine, both ends registered there. A reader uthread parks
  // on each read end; then a single closer uthread deregisters both write
  // ends. Whichever worker the closer runs on, one of its two Deregisters
  // targets the other worker's engine while that engine keeps polling. The
  // close must surface as a hangup through the home engine and wake the
  // parked reader, and the retired handle must be freed behind any in-flight
  // event batch (ASan/TSan).
  Runtime rt(RuntimeOptions{.workers = 2, .io_engine = true});
  constexpr int kEngines = 2;
  int pipes[kEngines][2];
  for (auto& p : pipes) {
    ASSERT_EQ(pipe(p), 0);
  }
  std::atomic<int> readers_done{0};
  unsigned observed[kEngines] = {0, 0};
  rt.Run([&] {
    IoHandle* read_ends[kEngines];
    IoHandle* write_ends[kEngines];
    for (int e = 0; e < kEngines; e++) {
      IoEngine* engine = rt.io_engine(e);
      read_ends[e] = engine->Register(pipes[e][0]);
      write_ends[e] = engine->Register(pipes[e][1]);
      ASSERT_NE(read_ends[e], nullptr);
      ASSERT_NE(write_ends[e], nullptr);
      IoHandle* handle = read_ends[e];
      Runtime::Spawn([&, e, engine, handle] {
        char buf[16];
        while (true) {
          observed[e] |= WaitForReadable(handle);
          if (read(handle->fd, buf, sizeof(buf)) == 0) {
            break;  // EOF: the write end is gone
          }
        }
        engine->Deregister(handle);
        readers_done.fetch_add(1, std::memory_order_acq_rel);
      });
    }
    // Both readers published themselves as waiters (parked or about to).
    while (read_ends[0]->reader.load(std::memory_order_acquire) == nullptr ||
           read_ends[1]->reader.load(std::memory_order_acquire) == nullptr) {
      Runtime::SleepFor(500);
    }
    Runtime::Spawn([&] {
      for (int e = 0; e < kEngines; e++) {
        rt.io_engine(e)->Deregister(write_ends[e]);
      }
    });
    while (readers_done.load(std::memory_order_acquire) < kEngines) {
      Runtime::SleepFor(500);
    }
  });
  for (const unsigned bits : observed) {
    EXPECT_NE(bits & kIoHup, 0u);
  }
}

// ---------------------------------------------------------------------------
// Completion-shaped data path (PopRecv, TakeAccepted, SendEnqueue,
// PopDatagram/SendDatagram): caller-context syscalls and the EPOLLOUT send
// continuation.
// ---------------------------------------------------------------------------

// Reads a runtime io counter by unqualified name from the global registry
// (-1 when absent, e.g. a standalone engine with no stats wired).
std::int64_t IoCounterValue(const char* name) {
  const std::string suffix = std::string(".") + name;
  for (const MetricSample& s : MetricsRegistry::Global().Snapshot()) {
    if (s.name.size() >= suffix.size() &&
        s.name.compare(s.name.size() - suffix.size(), suffix.size(), suffix) == 0) {
      return static_cast<std::int64_t>(s.value);
    }
  }
  return -1;
}

// Pops every received segment until the read that hits EAGAIN, appending
// payload bytes to `sink`.
std::size_t DrainRecvInto(IoEngine* engine, IoHandle* handle, std::string* sink) {
  std::size_t total = 0;
  IoRecvSlice slice;
  while (engine->PopRecv(handle, &slice)) {
    if (sink != nullptr) {
      sink->append(slice.data, slice.len);
    }
    total += slice.len;
  }
  return total;
}

std::string PatternBytes(std::size_t n, unsigned seed) {
  std::string s(n, '\0');
  for (std::size_t i = 0; i < n; i++) {
    seed = seed * 1664525u + 1013904223u;
    s[i] = static_cast<char>('a' + (seed >> 24) % 26);
  }
  return s;
}

TEST(IoEngineTest, ReadinessPipeAndCompletionStreamShareEngine) {
  // A readiness pipe and a kStream socket on one engine: both live in the
  // epoll set, the socket behind the engine's own read/sendmsg, and both
  // must be served out of one Poll.
  Runtime rt(RuntimeOptions{.workers = 1, .io_engine = true});
  int pipefd[2];
  ASSERT_EQ(pipe(pipefd), 0);
  TcpPair pair = MakeTcpPair();
  const std::string msg = PatternBytes(300, 11);
  std::thread client([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_EQ(write(pipefd[1], "ping", 4), 4);
    close(pipefd[1]);
    ASSERT_EQ(write(pair.client, msg.data(), msg.size()), static_cast<ssize_t>(msg.size()));
    std::string back;
    char buf[1024];
    while (back.size() < msg.size()) {
      const ssize_t n = read(pair.client, buf, sizeof(buf));
      ASSERT_GT(n, 0);
      back.append(buf, static_cast<std::size_t>(n));
    }
    EXPECT_EQ(back, msg);
    close(pair.client);
  });
  std::string piped;
  std::atomic<int> done{0};
  rt.Run([&] {
    IoEngine* engine = rt.io_engine(0);
    IoHandle* pipe_handle = engine->Register(pipefd[0]);
    IoHandle* stream = engine->Register(pair.server, IoRegisterMode::kStream);
    ASSERT_NE(pipe_handle, nullptr);
    ASSERT_NE(stream, nullptr);
    EXPECT_EQ(pipe_handle->mode, IoRegisterMode::kReadiness);
    EXPECT_EQ(stream->mode, IoRegisterMode::kStream);
    Runtime::Spawn([&, engine, pipe_handle] {
      char buf[16];
      while (true) {
        WaitForReadable(pipe_handle);
        const ssize_t n = read(pipe_handle->fd, buf, sizeof(buf));
        if (n == 0) {
          break;
        }
        if (n > 0) {
          piped.append(buf, static_cast<std::size_t>(n));
        }
      }
      engine->Deregister(pipe_handle);
      done.fetch_add(1, std::memory_order_acq_rel);
    });
    Runtime::Spawn([&, engine, stream] {
      std::string got;
      while (got.size() < msg.size()) {
        const unsigned ready = WaitForReadable(stream);
        ASSERT_EQ(ready & kIoError, 0u);
        DrainRecvInto(engine, stream, &got);
      }
      ASSERT_GT(engine->SendEnqueue(stream, got), 0u);
      while (engine->SendQueuedBytes(stream) > 0) {
        const unsigned w = WaitForWritable(stream);
        ASSERT_EQ(w & kIoError, 0u);
        if ((w & kIoWritable) == 0) {
          Runtime::Yield();
        }
      }
      engine->Deregister(stream);
      done.fetch_add(1, std::memory_order_acq_rel);
    });
    while (done.load(std::memory_order_acquire) < 2) {
      Runtime::SleepFor(500);
    }
  });
  client.join();
  EXPECT_EQ(piped, "ping");
}

TEST(IoEngineTest, CompletionStreamEchoRoundTrip) {
  Runtime rt(RuntimeOptions{.workers = 1, .io_engine = true});
  TcpPair pair = MakeTcpPair();
  const std::string msg = PatternBytes(512, 7);
  std::thread client([&] {
    ASSERT_EQ(write(pair.client, msg.data(), msg.size()), static_cast<ssize_t>(msg.size()));
    std::string back;
    char buf[1024];
    while (back.size() < msg.size()) {
      const ssize_t n = read(pair.client, buf, sizeof(buf));
      ASSERT_GT(n, 0);
      back.append(buf, static_cast<std::size_t>(n));
    }
    EXPECT_EQ(back, msg);
    close(pair.client);
  });
  std::atomic<bool> done{false};
  rt.Run([&] {
    IoEngine* engine = rt.io_engine(0);
    IoHandle* handle = engine->Register(pair.server, IoRegisterMode::kStream);
    ASSERT_NE(handle, nullptr);
    ASSERT_NE(handle->cs, nullptr) << "expected the completion path, got readiness";
    Runtime::Spawn([&, handle] {
      std::string got;
      while (true) {
        const unsigned ready = WaitForReadable(handle);
        DrainRecvInto(engine, handle, &got);
        if (got.size() >= msg.size() || (ready & (kIoHup | kIoError)) != 0) {
          break;
        }
      }
      EXPECT_EQ(got, msg);
      EXPECT_GT(engine->SendEnqueue(handle, got), 0u);
      // Flush before teardown: wait for the send queue's drain latch.
      while (engine->SendQueuedBytes(handle) > 0) {
        const unsigned w = WaitForWritable(handle);
        ASSERT_EQ(w & kIoError, 0u);
        if ((w & kIoWritable) == 0) {
          Runtime::Yield();
        }
      }
      engine->Deregister(handle);
      done.store(true, std::memory_order_release);
    });
    AwaitFlag(done);
  });
  client.join();
}

TEST(IoEngineTest, StreamEchoCountsDataPathSyscalls) {
  // One connection taken through TakeAccepted, then N sequential one-frame
  // round trips on its kStream handle. Each round the handler drains the
  // socket (the read that returns the frame, then the read that hits EAGAIN
  // and ends the drain) and replies with one inline sendmsg, so the engine
  // counts exactly N writes and at least 2N reads over the round trips, and
  // io_data_syscalls() is the sum of the three syscall lanes, all nonzero.
  Runtime rt(RuntimeOptions{.workers = 1, .io_engine = true});
  const int lfd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(listen(lfd, 1), 0);
  socklen_t alen = sizeof(addr);
  ASSERT_EQ(getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &alen), 0);
  constexpr int kRounds = 50;
  constexpr std::size_t kFrame = 32;
  std::thread client([&] {
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    char buf[kFrame];
    for (int r = 0; r < kRounds; r++) {
      const std::string frame = PatternBytes(kFrame, static_cast<unsigned>(r));
      ASSERT_EQ(write(fd, frame.data(), kFrame), static_cast<ssize_t>(kFrame));
      std::size_t got = 0;
      while (got < kFrame) {
        const ssize_t n = read(fd, buf + got, kFrame - got);
        ASSERT_GT(n, 0);
        got += static_cast<std::size_t>(n);
      }
      ASSERT_EQ(std::string(buf, kFrame), frame);
    }
    close(fd);
  });
  std::int64_t reads = -1;
  std::int64_t writes = -1;
  std::int64_t accepts = -1;
  std::uint64_t total = 0;
  std::int64_t lanes = -1;
  std::uint64_t data_syscalls = 0;
  std::atomic<bool> done{false};
  rt.Run([&] {
    IoEngine* engine = rt.io_engine(0);
    IoHandle* listener = engine->Register(lfd, IoRegisterMode::kListener);
    ASSERT_NE(listener, nullptr);
    Runtime::Spawn([&, listener] {
      int fd;
      while ((fd = engine->TakeAccepted(listener)) < 0) {
        WaitForReadable(listener);
      }
      IoHandle* handle = engine->Register(fd, IoRegisterMode::kStream);
      ASSERT_NE(handle, nullptr);
      const std::int64_t reads0 = IoCounterValue("sys_read");
      const std::int64_t writes0 = IoCounterValue("sys_write");
      const std::int64_t accepts0 = IoCounterValue("sys_accept");
      const std::uint64_t total0 = rt.io_data_syscalls();
      for (int r = 0; r < kRounds; r++) {
        std::string frame;
        while (frame.size() < kFrame) {
          const unsigned ready = WaitForReadable(handle);
          ASSERT_EQ(ready & (kIoHup | kIoError), 0u);
          DrainRecvInto(engine, handle, &frame);
        }
        ASSERT_EQ(frame.size(), kFrame);
        ASSERT_GT(engine->SendEnqueue(handle, std::move(frame)), 0u);
        ASSERT_EQ(engine->SendQueuedBytes(handle), 0u) << "a one-frame reply must leave inline";
      }
      reads = IoCounterValue("sys_read") - reads0;
      writes = IoCounterValue("sys_write") - writes0;
      accepts = IoCounterValue("sys_accept") - accepts0;
      total = rt.io_data_syscalls() - total0;
      lanes = IoCounterValue("sys_read") + IoCounterValue("sys_write") +
              IoCounterValue("sys_accept");
      data_syscalls = rt.io_data_syscalls();
      EXPECT_GT(IoCounterValue("sys_accept"), 0);
      engine->Deregister(handle);
      engine->Deregister(listener);
      done.store(true, std::memory_order_release);
    });
    AwaitFlag(done);
  });
  client.join();
  EXPECT_EQ(writes, kRounds);
  EXPECT_GE(reads, 2 * kRounds);
  EXPECT_EQ(accepts, 0);
  EXPECT_EQ(total, static_cast<std::uint64_t>(reads + writes + accepts));
  EXPECT_EQ(data_syscalls, static_cast<std::uint64_t>(lanes))
      << "io_data_syscalls() is not sys_read + sys_write + sys_accept";
}

TEST(IoEngineTest, CompletionShortSendContinuation) {
  Runtime rt(RuntimeOptions{.workers = 1, .io_engine = true});
  TcpPair pair = MakeTcpPair();
  // Tiny send buffer + a slow reader that starts only once the payload is
  // queued: 1 MiB cannot fit the send buffer plus the reader's receive
  // window, so the send must go out short, and the engine must continue the
  // remainder (repeatedly) from EPOLLOUT edges until drained.
  const int sndbuf = 4096;
  ASSERT_EQ(setsockopt(pair.server, SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf)), 0);
  constexpr std::size_t kPayload = 1 << 20;
  const std::string payload = PatternBytes(kPayload, 99);
  std::atomic<bool> queued{false};
  std::thread client([&] {
    while (!queued.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    std::string back;
    char buf[16 * 1024];
    while (back.size() < kPayload) {
      const ssize_t n = read(pair.client, buf, sizeof(buf));
      ASSERT_GT(n, 0);
      back.append(buf, static_cast<std::size_t>(n));
      if ((back.size() % (128 * 1024)) < sizeof(buf)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
    EXPECT_EQ(back, payload);
    close(pair.client);
  });
  std::atomic<bool> done{false};
  rt.Run([&] {
    IoEngine* engine = rt.io_engine(0);
    IoHandle* handle = engine->Register(pair.server, IoRegisterMode::kStream);
    ASSERT_NE(handle, nullptr);
    ASSERT_NE(handle->cs, nullptr);
    Runtime::Spawn([&, handle] {
      ASSERT_GT(engine->SendEnqueue(handle, payload), 0u);
      // Far more than both socket buffers: the rest must wait for the
      // continuation.
      EXPECT_GT(engine->SendQueuedBytes(handle), kPayload / 2);
      queued.store(true, std::memory_order_release);
      while (engine->SendQueuedBytes(handle) > 0) {
        const unsigned w = WaitForWritable(handle);
        ASSERT_EQ(w & kIoError, 0u);
        if ((w & kIoWritable) == 0) {
          Runtime::Yield();
        }
      }
      engine->Deregister(handle);
      done.store(true, std::memory_order_release);
    });
    AwaitFlag(done);
  });
  client.join();
}

TEST(IoEngineTest, CompletionFloodArrivesInOrder) {
  // A 64 KiB flood, many times the handle's read buffer, queued in the
  // socket before the consumer starts: every byte arrives, in order.
  Runtime rt(RuntimeOptions{.workers = 1, .io_engine = true});
  TcpPair pair = MakeTcpPair();
  constexpr std::size_t kTotal = 64 * 1024;
  const std::string payload = PatternBytes(kTotal, 3);
  std::thread client([&] {
    std::size_t sent = 0;
    while (sent < kTotal) {
      const ssize_t n = write(pair.client, payload.data() + sent, kTotal - sent);
      ASSERT_GT(n, 0);
      sent += static_cast<std::size_t>(n);
    }
    close(pair.client);
  });
  std::atomic<bool> done{false};
  rt.Run([&] {
    IoEngine* engine = rt.io_engine(0);
    IoHandle* handle = engine->Register(pair.server, IoRegisterMode::kStream);
    ASSERT_NE(handle, nullptr);
    ASSERT_NE(handle->cs, nullptr);
    Runtime::Spawn([&, handle] {
      // Let the flood queue up before consuming anything.
      Runtime::SleepFor(50'000);
      std::string got;
      while (got.size() < kTotal) {
        const unsigned ready = WaitForReadable(handle);
        ASSERT_EQ(ready & kIoError, 0u);
        DrainRecvInto(engine, handle, &got);
      }
      EXPECT_EQ(got, payload);
      engine->Deregister(handle);
      done.store(true, std::memory_order_release);
    });
    AwaitFlag(done);
  });
  client.join();
}

TEST(IoEngineTest, CompletionEchoUnderStealChurn) {
  // Multi-worker echo: handler uthreads migrate via work stealing while
  // their fds' events keep landing on the HOME engine, so PopRecv/
  // SendEnqueue and the EPOLLOUT continuation all cross workers. TSan is the
  // real assertion.
  Runtime rt(RuntimeOptions{.workers = 2, .io_engine = true});
  constexpr int kConns = 4;
  constexpr int kRounds = 200;
  TcpPair pairs[kConns];
  for (TcpPair& pair : pairs) {
    pair = MakeTcpPair();
  }
  std::vector<std::thread> clients;
  for (int c = 0; c < kConns; c++) {
    clients.emplace_back([&, c] {
      unsigned rng = 1000u + static_cast<unsigned>(c);
      char buf[1024];
      for (int r = 0; r < kRounds; r++) {
        rng = rng * 1664525u + 1013904223u;
        const std::size_t n = 1 + rng % 600;
        const std::string msg = PatternBytes(n, rng);
        ASSERT_EQ(write(pairs[c].client, msg.data(), n), static_cast<ssize_t>(n));
        std::string back;
        while (back.size() < n) {
          const ssize_t m = read(pairs[c].client, buf, sizeof(buf));
          ASSERT_GT(m, 0);
          back.append(buf, static_cast<std::size_t>(m));
        }
        ASSERT_EQ(back, msg);
      }
      close(pairs[c].client);
    });
  }
  std::atomic<int> finished{0};
  rt.Run([&] {
    for (int c = 0; c < kConns; c++) {
      IoEngine* engine = rt.io_engine(c % 2);
      IoHandle* handle = engine->Register(pairs[c].server, IoRegisterMode::kStream);
      ASSERT_NE(handle, nullptr);
      ASSERT_NE(handle->cs, nullptr);
      Runtime::Spawn([&, engine, handle] {
        while (true) {
          const unsigned ready = WaitForReadable(handle);
          std::string chunk;
          DrainRecvInto(engine, handle, &chunk);
          if (!chunk.empty()) {
            ASSERT_GT(engine->SendEnqueue(handle, std::move(chunk)), 0u);
          }
          if ((ready & (kIoHup | kIoError)) != 0) {
            break;  // ping-pong protocol: nothing can be in flight by FIN
          }
        }
        engine->Deregister(handle);
        finished.fetch_add(1, std::memory_order_release);
      });
    }
    // Churn uthreads keep both runqueues busy so the steal path engages.
    std::atomic<int> churned{0};
    for (int i = 0; i < 4; i++) {
      Runtime::Spawn([&churned] {
        for (int k = 0; k < 20'000; k++) {
          Runtime::Yield();
        }
        churned.fetch_add(1, std::memory_order_release);
      });
    }
    while (finished.load(std::memory_order_acquire) < kConns ||
           churned.load(std::memory_order_acquire) < 4) {
      Runtime::SleepFor(500);
    }
  });
  for (std::thread& t : clients) {
    t.join();
  }
}

TEST(IoEngineTest, CompletionPeerResetMidSend) {
  // RST lands while the send queue waits for EPOLLOUT: the error must latch
  // kIoError (waking the handler), the send queue must drop, and teardown
  // must not leak the queue or the read buffer (ASan).
  Runtime rt(RuntimeOptions{.workers = 1, .io_engine = true});
  TcpPair pair = MakeTcpPair();
  const int sndbuf = 4096;
  ASSERT_EQ(setsockopt(pair.server, SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof(sndbuf)), 0);
  std::atomic<bool> queued{false};
  std::thread client([&] {
    // Never reads; aborts the connection once the server's queue is primed.
    while (!queued.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    linger lg{1, 0};
    ASSERT_EQ(setsockopt(pair.client, SOL_SOCKET, SO_LINGER, &lg, sizeof(lg)), 0);
    close(pair.client);  // RST
  });
  std::atomic<bool> done{false};
  rt.Run([&] {
    IoEngine* engine = rt.io_engine(0);
    IoHandle* handle = engine->Register(pair.server, IoRegisterMode::kStream);
    ASSERT_NE(handle, nullptr);
    ASSERT_NE(handle->cs, nullptr);
    Runtime::Spawn([&, handle] {
      // Far more than sndbuf + rcvbuf: guaranteed still queued at the RST.
      ASSERT_GT(engine->SendEnqueue(handle, PatternBytes(1 << 20, 13)), 0u);
      queued.store(true, std::memory_order_release);
      unsigned ready = 0;
      while ((ready & (kIoError | kIoHup)) == 0) {
        ready = WaitForReadable(handle);
        DrainRecvInto(engine, handle, nullptr);
      }
      // The failed continuation dropped the queue so teardown cannot wait
      // on bytes that can never leave.
      while (engine->SendQueuedBytes(handle) > 0) {
        Runtime::SleepFor(500);
      }
      engine->Deregister(handle);
      done.store(true, std::memory_order_release);
    });
    AwaitFlag(done);
  });
  client.join();
}

TEST(IoEngineTest, CompletionEofDeliveredAfterData) {
  // Graceful FIN: every data byte precedes the zero-byte EOF read, so a
  // handler that wakes on kIoHup still finds (and must drain) all bytes.
  Runtime rt(RuntimeOptions{.workers = 1, .io_engine = true});
  TcpPair pair = MakeTcpPair();
  constexpr std::size_t kTotal = 10 * 1024;
  const std::string payload = PatternBytes(kTotal, 21);
  std::thread client([&] {
    std::size_t sent = 0;
    while (sent < kTotal) {
      const ssize_t n = write(pair.client, payload.data() + sent, kTotal - sent);
      ASSERT_GT(n, 0);
      sent += static_cast<std::size_t>(n);
    }
    close(pair.client);  // immediate FIN behind the data
  });
  std::atomic<bool> done{false};
  rt.Run([&] {
    IoEngine* engine = rt.io_engine(0);
    IoHandle* handle = engine->Register(pair.server, IoRegisterMode::kStream);
    ASSERT_NE(handle, nullptr);
    ASSERT_NE(handle->cs, nullptr);
    Runtime::Spawn([&, handle] {
      std::string got;
      unsigned ready = 0;
      while ((ready & (kIoHup | kIoError)) == 0 || got.size() < kTotal) {
        ready |= WaitForReadable(handle);
        ASSERT_EQ(ready & kIoError, 0u);
        DrainRecvInto(engine, handle, &got);
      }
      EXPECT_EQ(got, payload);
      EXPECT_NE(ready & kIoHup, 0u);
      engine->Deregister(handle);
      done.store(true, std::memory_order_release);
    });
    AwaitFlag(done);
  });
  client.join();
}

TEST(IoEngineTest, CompletionAcceptServesEveryClient) {
  Runtime rt(RuntimeOptions{.workers = 1, .io_engine = true});
  const int lfd = socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(listen(lfd, 16), 0);
  socklen_t alen = sizeof(addr);
  ASSERT_EQ(getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &alen), 0);

  constexpr int kClients = 6;
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; c++) {
    clients.emplace_back([&, c] {
      const int fd = socket(AF_INET, SOCK_STREAM, 0);
      ASSERT_GE(fd, 0);
      ASSERT_EQ(connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
      const char byte = static_cast<char>('A' + c);
      ASSERT_EQ(write(fd, &byte, 1), 1);
      char reply = 0;
      ASSERT_EQ(read(fd, &reply, 1), 1);
      EXPECT_EQ(reply, byte);
      close(fd);
    });
  }
  std::atomic<bool> done{false};
  rt.Run([&] {
    IoEngine* engine = rt.io_engine(0);
    IoHandle* listener = engine->Register(lfd, IoRegisterMode::kListener);
    ASSERT_NE(listener, nullptr);
    ASSERT_NE(listener->cs, nullptr);
    Runtime::Spawn([&, listener] {
      std::atomic<int> served{0};
      int accepted = 0;
      while (accepted < kClients) {
        WaitForReadable(listener);
        int fd;
        while ((fd = engine->TakeAccepted(listener)) >= 0) {
          accepted++;
          IoHandle* conn = engine->Register(fd, IoRegisterMode::kStream);
          ASSERT_NE(conn, nullptr);
          Runtime::Spawn([&, conn] {
            std::string got;
            while (got.empty()) {
              WaitForReadable(conn);
              DrainRecvInto(engine, conn, &got);
            }
            ASSERT_GT(engine->SendEnqueue(conn, got), 0u);
            // One-byte echo: wait for the drain latch, then tear down.
            while (engine->SendQueuedBytes(conn) > 0) {
              const unsigned w = WaitForWritable(conn);
              if ((w & (kIoWritable | kIoError)) == 0) {
                Runtime::Yield();
              }
            }
            engine->Deregister(conn);
            served.fetch_add(1, std::memory_order_release);
          });
        }
      }
      while (served.load(std::memory_order_acquire) < kClients) {
        Runtime::SleepFor(500);
      }
      engine->Deregister(listener);
      done.store(true, std::memory_order_release);
    });
    AwaitFlag(done);
    EXPECT_GE(IoCounterValue("sys_accept"), kClients);
  });
  for (std::thread& t : clients) {
    t.join();
  }
}

TEST(IoEngineTest, CompletionDatagramRoundTrip) {
  Runtime rt(RuntimeOptions{.workers = 1, .io_engine = true});
  const int ufd = socket(AF_INET, SOCK_DGRAM, 0);
  ASSERT_GE(ufd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(bind(ufd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  socklen_t alen = sizeof(addr);
  ASSERT_EQ(getsockname(ufd, reinterpret_cast<sockaddr*>(&addr), &alen), 0);

  constexpr int kDatagrams = 20;
  std::thread client([&] {
    const int fd = socket(AF_INET, SOCK_DGRAM, 0);
    ASSERT_GE(fd, 0);
    for (int i = 0; i < kDatagrams; i++) {
      const std::string msg = "dgram-" + std::to_string(i);
      ASSERT_EQ(sendto(fd, msg.data(), msg.size(), 0, reinterpret_cast<sockaddr*>(&addr),
                       sizeof(addr)),
                static_cast<ssize_t>(msg.size()));
    }
    // Loopback UDP is lossless at this scale; echoes may arrive reordered.
    std::vector<bool> seen(kDatagrams, false);
    char buf[256];
    for (int i = 0; i < kDatagrams; i++) {
      const ssize_t n = recvfrom(fd, buf, sizeof(buf), 0, nullptr, nullptr);
      ASSERT_GT(n, 6);
      buf[n] = '\0';
      const int idx = std::atoi(buf + 6);
      ASSERT_GE(idx, 0);
      ASSERT_LT(idx, kDatagrams);
      EXPECT_FALSE(seen[idx]);
      seen[idx] = true;
    }
    close(fd);
  });
  std::atomic<bool> done{false};
  rt.Run([&] {
    IoEngine* engine = rt.io_engine(0);
    IoHandle* handle = engine->Register(ufd, IoRegisterMode::kDatagram);
    ASSERT_NE(handle, nullptr);
    ASSERT_NE(handle->cs, nullptr);
    Runtime::Spawn([&, handle] {
      int echoed = 0;
      while (echoed < kDatagrams) {
        WaitForReadable(handle);
        IoDatagram dgram;
        while (engine->PopDatagram(handle, &dgram)) {
          ASSERT_GT(dgram.len, 0u);
          ASSERT_TRUE(engine->SendDatagram(handle, dgram.peer,
                                           std::string(dgram.data, dgram.len)));
          echoed++;
        }
      }
      engine->Deregister(handle);
      done.store(true, std::memory_order_release);
    });
    AwaitFlag(done);
  });
  client.join();
}

}  // namespace
}  // namespace skyloft
