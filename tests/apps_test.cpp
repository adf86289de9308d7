// Tests for the application models (schbench, workload mixes, batch app) and
// the real KV store, plain and striped.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <random>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/simcore/simulation.h"
#include "src/apps/batch_app.h"
#include "src/apps/key_index.h"
#include "src/apps/kv_server_net.h"
#include "src/apps/kvstore.h"
#include "src/apps/schbench.h"
#include "src/apps/workloads.h"
#include "src/libos/percpu_engine.h"
#include "src/policies/cfs.h"
#include "src/policies/round_robin.h"

namespace skyloft {
namespace {

// ---- KvStore ----

TEST(KvStoreTest, SetGetOverwrite) {
  KvStore kv;
  EXPECT_TRUE(kv.Set("a", "1"));
  EXPECT_FALSE(kv.Set("a", "2"));  // overwrite
  EXPECT_EQ(kv.Get("a"), "2");
  EXPECT_EQ(kv.Get("missing"), std::nullopt);
  EXPECT_EQ(kv.Size(), 1u);
}

TEST(KvStoreTest, GrowsPastInitialCapacity) {
  KvStore kv(16);
  for (int i = 0; i < 10'000; i++) {
    kv.Set("key" + std::to_string(i), std::to_string(i * 3));
  }
  EXPECT_EQ(kv.Size(), 10'000u);
  for (int i = 0; i < 10'000; i += 97) {
    EXPECT_EQ(kv.Get("key" + std::to_string(i)), std::to_string(i * 3));
  }
}

// 200k seeded random SETs and GETs, misses included, against
// std::unordered_map, from the smallest table: many 1.5x growths, overwrites,
// the empty key and heap-allocated values included.
TEST(KvStoreTest, MatchesUnorderedMapUnderRandomOps) {
  KvStore kv(16);
  std::unordered_map<std::string, std::string> model;
  std::mt19937_64 rng(42);
  constexpr std::uint64_t kKeys = 20'000;  // key 0 is ""
  for (int op = 0; op < 200'000; op++) {
    const std::uint64_t id = rng() % kKeys;
    const std::string key = id == 0 ? std::string() : std::string("k").append(std::to_string(id));
    const std::uint64_t dice = rng() % 100;
    if (dice < 45) {
      const std::string value =
          dice < 5 ? std::string(100, static_cast<char>('a' + op % 26)) : std::to_string(op);
      const bool is_new = model.find(key) == model.end();
      model[key] = value;
      ASSERT_EQ(kv.Set(key, value), is_new) << "op " << op << " key '" << key << "'";
    } else {
      const auto it = model.find(key);
      const std::optional<std::string> want =
          it == model.end() ? std::nullopt : std::optional<std::string>(it->second);
      ASSERT_EQ(kv.Get(key), want) << "op " << op << " key '" << key << "'";
    }
    ASSERT_EQ(kv.Size(), model.size()) << "op " << op;
  }
  for (const auto& [key, value] : model) {
    ASSERT_EQ(kv.Get(key), value) << "key '" << key << "'";
  }
}

TEST(KvStoreTest, ReservedTableHoldsEveryInsert) {
  for (const std::size_t n : {0, 1, 14, 15, 16, 1'000, 50'000}) {
    KvStore kv(16);
    kv.Reserve(n);
    for (std::size_t i = 0; i < n; i++) {
      ASSERT_TRUE(kv.Set("user" + std::to_string(i), "profile-" + std::to_string(i)));
    }
    ASSERT_EQ(kv.Size(), n);
    for (std::size_t i = 0; i < n; i++) {
      ASSERT_EQ(kv.Get("user" + std::to_string(i)), "profile-" + std::to_string(i)) << n;
    }
  }
}

// ---- KeyIndex ----

// A key of `len` bytes over a 4-letter alphabet that includes NUL and 0xff,
// so prefix ties, zero padding and unsigned byte order all come up.
std::string RandomKey(std::mt19937_64& rng, std::size_t len) {
  static constexpr char kAlphabet[] = {'\0', 'a', 'b', '\xff'};
  std::string key(len, '\0');
  for (char& c : key) {
    c = kAlphabet[rng() % 4];
  }
  return key;
}

// Walks up to `steps` keys from `it` and from `want` side by side.
void ExpectSameWalk(const KeyIndex& index, KeyIndex::Iterator it,
                    std::set<std::string>::const_iterator want, const std::set<std::string>& model,
                    int steps, const std::string& probe) {
  for (int i = 0; i < steps && want != model.end(); i++, ++it, ++want) {
    ASSERT_FALSE(it == index.end()) << "probe of " << probe.size() << " bytes, step " << i;
    ASSERT_EQ(*it, *want) << "probe of " << probe.size() << " bytes, step " << i;
  }
  if (want == model.end()) {
    ASSERT_TRUE(it == index.end()) << "probe of " << probe.size() << " bytes";
  }
}

// The whole walk, then bounded walks from 5,000 probes, present or absent.
void ExpectSameAsModel(const KeyIndex& index, const std::set<std::string>& model,
                       std::mt19937_64& rng) {
  ASSERT_NO_FATAL_FAILURE(ExpectSameWalk(index, index.begin(), model.begin(), model,
                                         static_cast<int>(model.size() + 1), "begin"));
  const std::vector<std::string> keys(model.begin(), model.end());
  for (int probe = 0; probe < 5'000; probe++) {
    const std::string key =
        probe % 2 == 0 ? keys[rng() % keys.size()] : RandomKey(rng, rng() % 20);
    ASSERT_NO_FATAL_FAILURE(
        ExpectSameWalk(index, index.LowerBound(key), model.lower_bound(key), model, 70, key));
    ASSERT_NO_FATAL_FAILURE(
        ExpectSameWalk(index, index.UpperBound(key), model.upper_bound(key), model, 70, key));
  }
}

// 120k seeded inserts against std::set: short keys that repeat, keys up to
// 300 bytes, and a few 64 KiB keys that no shared leaf can hold.
TEST(KeyIndexTest, MatchesStdSetUnderRandomInserts) {
  KeyIndex index;
  std::set<std::string> model;
  std::mt19937_64 rng(7);
  const auto insert = [&](const std::string& key) {
    ASSERT_EQ(index.Insert(key), model.insert(key).second) << key.size() << "-byte key";
    ASSERT_EQ(index.size(), model.size());
  };
  // A new first key, then a huge one before it: the first leaf moves right.
  ASSERT_NO_FATAL_FAILURE(insert("b"));
  ASSERT_NO_FATAL_FAILURE(insert("ab"));
  ASSERT_NO_FATAL_FAILURE(insert(std::string(64 * 1024, 'a')));
  for (int op = 0; op < 120'000; op++) {
    const std::uint64_t dice = rng() % 1000;
    const std::size_t len = dice == 0 ? 64 * 1024 : dice < 700 ? rng() % 6 : rng() % 301;
    ASSERT_NO_FATAL_FAILURE(insert(RandomKey(rng, len)));
  }
  ASSERT_GT(index.leaves(), 100u);
  ASSERT_NO_FATAL_FAILURE(ExpectSameAsModel(index, model, rng));
}

// 50k keys inserted in ascending order take the append path, with a key
// longer than a shared leaf among them and duplicates of the largest key;
// then random inserts split the full leaves it left.
TEST(KeyIndexTest, AscendingInsertsPackLeaves) {
  KeyIndex index;
  std::mt19937_64 rng(11);
  std::set<std::string> model;
  while (model.size() < 50'000) {
    model.insert(RandomKey(rng, rng() % 25));
  }
  const std::string huge = RandomKey(rng, KeyIndex::kLeafBytes + 1000);
  model.insert(huge);
  std::size_t bytes = 0;  // what the keys take in leaves, slots included
  std::size_t done = 0;
  for (const std::string& key : model) {
    ASSERT_TRUE(index.Insert(key)) << "key " << done;
    bytes += key.size() + 2;
    done++;
    if (key == huge || done == model.size() / 2) {
      ASSERT_FALSE(index.Insert(key)) << "duplicate of key " << done - 1;
    }
    ASSERT_EQ(index.size(), done);
  }
  const std::size_t shared_cap = KeyIndex::kLeafBytes - 12;
  EXPECT_LE(index.leaves(), (bytes + shared_cap - 1) / shared_cap + 2);
  ASSERT_NO_FATAL_FAILURE(ExpectSameAsModel(index, model, rng));
  for (int op = 0; op < 20'000; op++) {
    const std::string key = RandomKey(rng, rng() % 30);
    ASSERT_EQ(index.Insert(key), model.insert(key).second) << "op " << op;
  }
  ASSERT_EQ(index.size(), model.size());
  ASSERT_NO_FATAL_FAILURE(ExpectSameAsModel(index, model, rng));
}

// ---- KvStripedStore ----

TEST(KvStripedStoreTest, ScanIsOrderedAndBounded) {
  KvStripedStore store(/*workers=*/1);
  store.Preload("b", "2");
  store.Preload("a", "1");
  store.Preload("d", "4");
  store.Preload("c", "3");
  EXPECT_EQ(store.Serve("SCAN b 2", 0), "b=2;c=3;");
  EXPECT_EQ(store.Serve("SCAN bb 10", 0), "c=3;d=4;");
}

TEST(KvStripedStoreTest, NewKeyShowsInNextScan) {
  KvStripedStore store(/*workers=*/1);
  store.Preload("a", "1");
  store.Preload("c", "3");
  EXPECT_EQ(store.Serve("SET b 2", 0), "STORED");
  EXPECT_EQ(store.Serve("SCAN a 10", 0), "a=1;b=2;c=3;");
  // An overwrite changes the value a SCAN reads, not the keys it lists.
  EXPECT_EQ(store.Serve("SET b 22", 0), "STORED");
  EXPECT_EQ(store.Serve("SCAN a 10", 0), "a=1;b=22;c=3;");
}

TEST(KvStripedStoreTest, ScanPastLastKeyRepliesEmpty) {
  KvStripedStore store(/*workers=*/1);
  store.Preload("a", "1");
  store.Preload("b", "2");
  EXPECT_EQ(store.Serve("SCAN c 8", 0), "EMPTY");
  EXPECT_EQ(store.Serve("SCAN b 8", 0), "b=2;");
}

TEST(KvStripedStoreTest, ScanLimitIsGlobalAndAscending) {
  // 256 keys hash across every one of the 8 stripes, each holding far more
  // than `limit` keys past the start: the reply must still be exactly the
  // store's first `limit` keys at or after the start, in one ascending run.
  KvStripedStore store(/*workers=*/1);
  ASSERT_EQ(store.stripes(), 8);
  char key[16];
  for (int i = 0; i < 256; i++) {
    std::snprintf(key, sizeof(key), "key%03d", i);
    store.Preload(key, std::to_string(i));
  }
  const std::string reply = store.Serve("SCAN key100 8", 0);
  std::vector<std::string> keys;
  std::size_t pos = 0;
  while (pos < reply.size()) {
    const std::size_t eq = reply.find('=', pos);
    const std::size_t semi = reply.find(';', pos);
    ASSERT_NE(eq, std::string::npos) << reply;
    ASSERT_NE(semi, std::string::npos) << reply;
    keys.push_back(reply.substr(pos, eq - pos));
    pos = semi + 1;
  }
  ASSERT_EQ(keys.size(), 8u) << reply;
  for (int i = 0; i < 8; i++) {
    std::snprintf(key, sizeof(key), "key%03d", 100 + i);
    EXPECT_EQ(keys[static_cast<std::size_t>(i)], key);
  }
  EXPECT_EQ(reply.substr(0, 11), "key100=100;");
}

TEST(KvStripedStoreTest, LongScanCopiesInChunksAndStaysExact) {
  // 300 keys take five index-lock holds of at most 64 keys; the reply is
  // still the 300 keys after the start, once each, in ascending order.
  KvStripedStore store(/*workers=*/1);
  char key[16];
  for (int i = 0; i < 1'000; i++) {
    std::snprintf(key, sizeof(key), "key%04d", i);
    store.Preload(key, std::to_string(i));
  }
  std::string want;
  for (int i = 500; i < 800; i++) {
    std::snprintf(key, sizeof(key), "key%04d", i);
    want += std::string(key) + "=" + std::to_string(i) + ";";
  }
  EXPECT_EQ(store.Serve("SCAN key0499x 300", 0), want);
  // A limit past the last key returns every remaining key.
  want.clear();
  for (int i = 900; i < 1'000; i++) {
    std::snprintf(key, sizeof(key), "key%04d", i);
    want += std::string(key) + "=" + std::to_string(i) + ";";
  }
  EXPECT_EQ(store.Serve("SCAN key0900 300", 0), want);
}

TEST(KvStripedStoreTest, HugeKeyScansInOrderBetweenNeighbours) {
  // Far past a shared leaf's budget, the key gets a leaf of its own.
  KvStripedStore store(/*workers=*/1);
  store.Preload("a", "1");
  store.Preload("c", "3");
  const std::string huge = std::string("b").append(100 * 1024, 'x');
  EXPECT_EQ(store.Serve("SET " + huge + " 2", 0), "STORED");
  EXPECT_EQ(store.Serve("SCAN a 10", 0), "a=1;" + huge + "=2;c=3;");
  EXPECT_EQ(store.Serve("SCAN b 1", 0), huge + "=2;");
  EXPECT_EQ(store.Serve("SCAN " + huge + "y 10", 0), "c=3;");
}

TEST(KvStripedStoreTest, ScanChunksMeetLeafBoundaries) {
  // 29-byte keys: a leaf holds at most kLeafBytes / 31 = 132 of them, so as
  // the start walks 200 consecutive keys, the end of a SCAN's first 64-key
  // chunk lands exactly on a leaf boundary at least once. Every reply must be
  // exact whatever the alignment.
  constexpr int kKeyLen = 29;
  constexpr int kStarts = 200;
  static_assert(KeyIndex::kLeafBytes / (kKeyLen + 2) < kStarts);
  KvStripedStore store(/*workers=*/1);
  std::vector<std::string> keys;
  char key[kKeyLen + 1];
  for (int i = 0; i < 600; i++) {
    std::snprintf(key, sizeof(key), "key%026d", i);
    keys.emplace_back(key);
  }
  std::mt19937_64 rng(3);
  std::vector<std::string> shuffled = keys;
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  for (const std::string& k : shuffled) {
    store.Preload(k, k.substr(kKeyLen - 3));
  }
  for (int start = 0; start < kStarts; start++) {
    std::string want;
    for (int i = start; i < start + 130; i++) {
      want += keys[static_cast<std::size_t>(i)] + "=" +
              keys[static_cast<std::size_t>(i)].substr(kKeyLen - 3) + ";";
    }
    ASSERT_EQ(store.Serve("SCAN " + keys[static_cast<std::size_t>(start)] + " 130", 0), want)
        << "start " << start;
  }
}

// ---- Workload mixes ----

TEST(WorkloadsTest, DispersiveMixMatchesPaper) {
  const RequestMix mix = DispersiveMix();
  EXPECT_NEAR(MixMeanNs(mix), 53'980.0, 1.0);  // 99.5% x 4us + 0.5% x 10ms
}

TEST(WorkloadsTest, RocksdbMixMatchesPaper) {
  const RequestMix mix = RocksdbBimodalMix();
  // 0.5 * 0.95us + 0.5 * 591us = 295.975 us
  EXPECT_NEAR(MixMeanNs(mix), 295'975.0, 1.0);
}

TEST(WorkloadsTest, MemcachedMixIsLightTailed) {
  const RequestMix mix = MemcachedUsrMix();
  EXPECT_LT(MixMeanNs(mix), 1'100.0);
}

// ---- schbench model ----

struct SchbenchRig {
  explicit SchbenchRig(int cores, std::unique_ptr<SchedPolicy> p) : policy(std::move(p)) {
    MachineConfig mcfg;
    mcfg.num_cores = cores;
    machine = std::make_unique<Machine>(&sim, mcfg);
    chip = std::make_unique<UintrChip>(machine.get());
    kernel = std::make_unique<KernelSim>(machine.get(), chip.get());
    PerCpuEngineConfig cfg;
    for (int i = 0; i < cores; i++) {
      cfg.base.worker_cores.push_back(i);
    }
    cfg.timer_hz = 100'000;
    cfg.tick_path = TickPath::kUserTimer;
    engine = std::make_unique<PerCpuEngine>(machine.get(), chip.get(), kernel.get(),
                                            policy.get(), cfg);
    app = engine->CreateApp("schbench");
    engine->Start();
  }
  Simulation sim;
  std::unique_ptr<Machine> machine;
  std::unique_ptr<UintrChip> chip;
  std::unique_ptr<KernelSim> kernel;
  std::unique_ptr<SchedPolicy> policy;
  std::unique_ptr<PerCpuEngine> engine;
  App* app = nullptr;
};

TEST(SchbenchTest, UndersubscribedWakeupsAreFast) {
  SchbenchRig rig(4, std::make_unique<RoundRobinPolicy>(Micros(50)));
  SchbenchSim bench(rig.engine.get(), rig.app,
                    SchbenchOptions{.worker_threads = 4, .request_ns = Micros(100)});
  bench.Start();
  rig.sim.RunUntil(Millis(50));
  EXPECT_GT(bench.requests_completed(), 100u);
  // Free cores: wakeup latency is just the switch cost, far under 1 us.
  EXPECT_LT(bench.WakeupPercentileNs(0.99), Micros(1));
}

TEST(SchbenchTest, OversubscriptionRaisesWakeupLatency) {
  SchbenchRig rig(2, std::make_unique<RoundRobinPolicy>(Micros(50)));
  SchbenchSim bench(rig.engine.get(), rig.app,
                    SchbenchOptions{.worker_threads = 8, .request_ns = Micros(500)});
  bench.Start();
  rig.sim.RunUntil(Millis(100));
  // 4x oversubscribed: woken workers wait for slices of the runners.
  EXPECT_GT(bench.WakeupPercentileNs(0.99), Micros(20));
}

TEST(SchbenchTest, WorkersKeepCyclingForever) {
  SchbenchRig rig(2, std::make_unique<RoundRobinPolicy>(Micros(50)));
  SchbenchSim bench(rig.engine.get(), rig.app,
                    SchbenchOptions{.worker_threads = 2, .request_ns = Micros(100)});
  bench.Start();
  rig.sim.RunUntil(Millis(10));
  const auto early = bench.requests_completed();
  rig.sim.RunUntil(Millis(20));
  EXPECT_GT(bench.requests_completed(), early) << "message threads must keep waking workers";
}

// ---- Batch app driver ----

TEST(BatchAppTest, SoaksIdleCpu) {
  SchbenchRig rig(2, std::make_unique<CfsPolicy>(CfsParams{}));
  App* batch = rig.engine->CreateApp("batch", true);
  BatchAppDriver driver(rig.engine.get(), batch, BatchAppDriver::Options{.tasks = 2});
  driver.Start();
  rig.sim.RunUntil(Millis(5));
  rig.engine->ResetStats();
  rig.sim.RunUntil(Millis(50));
  // Machine otherwise idle: batch should own nearly all of it.
  EXPECT_GT(driver.CpuShare(), 0.9);
}

TEST(BatchAppTest, SharesUnderCfsWithForegroundWork) {
  SchbenchRig rig(2, std::make_unique<CfsPolicy>(CfsParams{Micros(12) + 500, Micros(50)}));
  App* batch = rig.engine->CreateApp("batch", true);
  BatchAppDriver driver(rig.engine.get(), batch, BatchAppDriver::Options{.tasks = 2});
  driver.Start();
  SchbenchSim fg(rig.engine.get(), rig.app,
                 SchbenchOptions{.worker_threads = 2, .request_ns = Micros(200)});
  fg.Start();
  rig.sim.RunUntil(Millis(5));
  rig.engine->ResetStats();
  rig.sim.RunUntil(Millis(50));
  const double share = driver.CpuShare();
  // CFS fair-shares: batch gets a real slice but not the whole machine.
  EXPECT_GT(share, 0.2);
  EXPECT_LT(share, 0.8);
  EXPECT_GT(fg.requests_completed(), 50u);
}

}  // namespace
}  // namespace skyloft
