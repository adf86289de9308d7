#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/base/bitmap.h"
#include "src/base/histogram.h"
#include "src/base/intrusive_list.h"
#include "src/base/random.h"
#include "src/base/ring_buffer.h"
#include "src/base/time.h"

namespace skyloft {
namespace {

// ---- time.h ----

TEST(TimeTest, CyclesToNsAtDefaultFrequency) {
  // 2 GHz: 1 cycle = 0.5 ns.
  EXPECT_EQ(CyclesToNs(2000), 1000);
  EXPECT_EQ(CyclesToNs(1), 0);  // truncation
  EXPECT_EQ(CyclesToNs(2), 1);
}

TEST(TimeTest, NsToCyclesRoundTrip) {
  EXPECT_EQ(NsToCycles(1000), 2000);
  EXPECT_EQ(NsToCycles(CyclesToNs(123456)), 123456);
}

TEST(TimeTest, CyclesToNsCustomFrequency) {
  EXPECT_EQ(CyclesToNs(3'000'000'000, 3'000'000'000), kSecond);
}

TEST(TimeTest, HzToPeriod) {
  EXPECT_EQ(HzToPeriodNs(1000), Millis(1));
  EXPECT_EQ(HzToPeriodNs(100'000), Micros(10));
  EXPECT_EQ(HzToPeriodNs(250), Millis(4));
}

TEST(TimeTest, NoOverflowOnLongDurations) {
  // A day's worth of cycles should convert without overflow.
  const Cycles day_cycles = kDefaultCpuHz * 86400;
  EXPECT_EQ(CyclesToNs(day_cycles), kSecond * 86400);
}

// ---- random.h ----

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; i++) {
    EXPECT_EQ(a.NextU64(), b.NextU64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; i++) {
    if (a.NextU64() == b.NextU64()) {
      same++;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; i++) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(9);
  for (int i = 0; i < 10000; i++) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(RngTest, ExponentialMeanConverges) {
  Rng rng(11);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; i++) {
    sum += rng.NextExponential(100.0);
  }
  EXPECT_NEAR(sum / n, 100.0, 2.0);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; i++) {
    if (rng.NextBool(0.25)) {
      hits++;
    }
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
}

// Derived streams must actually decorrelate: two streams derived from the
// same base seed draw different sequences.
TEST(RngTest, DerivedNodeStreamsAreDistinct) {
  Rng a(Rng::DeriveStream(42, 0));
  Rng b(Rng::DeriveStream(42, 1));
  Rng c(Rng::DeriveStream(42, 2));
  int equal_ab = 0;
  int equal_bc = 0;
  for (int i = 0; i < 64; i++) {
    const std::uint64_t x = a.NextU64();
    const std::uint64_t y = b.NextU64();
    const std::uint64_t z = c.NextU64();
    equal_ab += (x == y);
    equal_bc += (y == z);
  }
  EXPECT_EQ(equal_ab, 0);
  EXPECT_EQ(equal_bc, 0);
  // Stream 0 is the base seed itself (single-node compatibility).
  EXPECT_EQ(Rng::DeriveStream(42, 0), 42u);
}

TEST(ServiceTimeDistTest, FixedAlwaysSame) {
  Rng rng(1);
  auto dist = ServiceTimeDist::Fixed(Micros(4));
  for (int i = 0; i < 10; i++) {
    EXPECT_EQ(dist.Sample(rng), Micros(4));
  }
  EXPECT_DOUBLE_EQ(dist.MeanNs(), static_cast<double>(Micros(4)));
}

TEST(ServiceTimeDistTest, BimodalProportions) {
  Rng rng(3);
  auto dist = ServiceTimeDist::Bimodal(0.995, Micros(4), Millis(10));
  int longs = 0;
  const int n = 200000;
  for (int i = 0; i < n; i++) {
    if (dist.Sample(rng) == Millis(10)) {
      longs++;
    }
  }
  EXPECT_NEAR(static_cast<double>(longs) / n, 0.005, 0.001);
  // Mean: 0.995*4us + 0.005*10ms = 53.98 us.
  EXPECT_NEAR(dist.MeanNs(), 53980.0, 1.0);
}

TEST(ServiceTimeDistTest, ExponentialMean) {
  Rng rng(5);
  auto dist = ServiceTimeDist::Exponential(Micros(10));
  double sum = 0;
  const int n = 100000;
  for (int i = 0; i < n; i++) {
    sum += static_cast<double>(dist.Sample(rng));
  }
  EXPECT_NEAR(sum / n, static_cast<double>(Micros(10)), 200.0);
}

// ---- histogram.h ----

TEST(HistogramTest, EmptyHistogram) {
  LatencyHistogram h;
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Percentile(0.5), 0);
  EXPECT_EQ(h.Min(), 0);
  EXPECT_EQ(h.Max(), 0);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
}

TEST(HistogramTest, SingleValue) {
  LatencyHistogram h;
  h.Record(1234);
  EXPECT_EQ(h.Count(), 1u);
  EXPECT_EQ(h.Min(), 1234);
  EXPECT_EQ(h.Max(), 1234);
  EXPECT_DOUBLE_EQ(h.Mean(), 1234.0);
  // Percentile is bucket-bounded above, clamped by max.
  EXPECT_EQ(h.Percentile(0.5), 1234);
  EXPECT_EQ(h.Percentile(0.99), 1234);
}

TEST(HistogramTest, ExactForSmallValues) {
  // Values < 128 land in exact buckets.
  LatencyHistogram h;
  for (int v = 0; v < 100; v++) {
    h.Record(v);
  }
  EXPECT_EQ(h.Percentile(0.0), 0);
  EXPECT_EQ(h.Percentile(0.5), 49);
  EXPECT_EQ(h.Percentile(1.0), 99);
}

TEST(HistogramTest, NegativeClampedToZero) {
  LatencyHistogram h;
  h.Record(-5);
  EXPECT_EQ(h.Min(), 0);
  EXPECT_EQ(h.Percentile(0.5), 0);
}

TEST(HistogramTest, MergeCombinesCountsAndExtremes) {
  LatencyHistogram a;
  LatencyHistogram b;
  a.Record(10);
  a.Record(20);
  b.Record(1000000);
  a.Merge(b);
  EXPECT_EQ(a.Count(), 3u);
  EXPECT_EQ(a.Min(), 10);
  EXPECT_EQ(a.Max(), 1000000);
}

TEST(HistogramTest, ResetClears) {
  LatencyHistogram h;
  h.Record(5);
  h.Reset();
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Percentile(0.99), 0);
}

// Property: percentile error is bounded by the bucket resolution (<1%).
class HistogramErrorTest : public ::testing::TestWithParam<std::int64_t> {};

TEST_P(HistogramErrorTest, RelativeErrorBounded) {
  const std::int64_t scale = GetParam();
  Rng rng(17);
  LatencyHistogram h;
  std::vector<std::int64_t> values;
  for (int i = 0; i < 20000; i++) {
    const auto v = static_cast<std::int64_t>(rng.NextExponential(static_cast<double>(scale)));
    values.push_back(v);
    h.Record(v);
  }
  std::sort(values.begin(), values.end());
  for (const double q : {0.5, 0.9, 0.99, 0.999}) {
    const auto exact = values[static_cast<std::size_t>(q * (values.size() - 1))];
    const auto approx = h.Percentile(q);
    if (exact > 256) {
      const double rel = std::abs(static_cast<double>(approx - exact)) /
                         static_cast<double>(exact);
      EXPECT_LT(rel, 0.02) << "q=" << q << " exact=" << exact << " approx=" << approx;
    } else {
      EXPECT_LE(std::abs(approx - exact), 4) << "q=" << q;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Scales, HistogramErrorTest,
                         ::testing::Values<std::int64_t>(100, 10'000, 1'000'000,
                                                         100'000'000));

TEST(HistogramTest, PercentileZeroReturnsExactMin) {
  // Regression: p0 used to return the bucket UPPER bound of the lowest
  // occupied bucket — e.g. 1008 for a 1000 ns minimum — biasing every low
  // quantile high. q=0 must report the tracked minimum exactly.
  LatencyHistogram h;
  h.Record(1000);
  h.Record(5000);
  EXPECT_EQ(h.Percentile(0.0), 1000);
  EXPECT_EQ(h.Percentile(0.0), h.Min());
}

// Property: p0/p50/p99/p100 against a sorted-vector nearest-rank reference.
// The endpoints are exact (Percentile clamps to the tracked [min, max]); the
// interior quantiles are within the documented 1/64 bucket-resolution bound,
// always from above (bucket upper bound >= every member of the bucket).
TEST_P(HistogramErrorTest, QuantilesMatchSortedReference) {
  const std::int64_t scale = GetParam();
  Rng rng(23);
  LatencyHistogram h;
  std::vector<std::int64_t> values;
  for (int i = 0; i < 20000; i++) {
    const auto v = static_cast<std::int64_t>(rng.NextExponential(static_cast<double>(scale)));
    values.push_back(v);
    h.Record(v);
  }
  std::sort(values.begin(), values.end());
  EXPECT_EQ(h.Percentile(0.0), values.front());
  EXPECT_EQ(h.Percentile(1.0), values.back());
  for (const double q : {0.5, 0.99}) {
    const auto exact = values[static_cast<std::size_t>(q * (values.size() - 1))];
    const auto approx = h.Percentile(q);
    ASSERT_GT(exact, 0);
    EXPECT_GE(approx, exact) << "q=" << q;
    const double rel =
        static_cast<double>(approx - exact) / static_cast<double>(exact);
    EXPECT_LE(rel, 1.0 / 64.0) << "q=" << q << " exact=" << exact << " approx=" << approx;
  }
}

// ---- intrusive_list.h ----

struct Node : ListNode {
  explicit Node(int v) : value(v) {}
  int value;
};

TEST(IntrusiveListTest, PushPopFifo) {
  IntrusiveList<Node> list;
  Node a(1);
  Node b(2);
  Node c(3);
  list.PushBack(&a);
  list.PushBack(&b);
  list.PushBack(&c);
  EXPECT_EQ(list.Size(), 3u);
  EXPECT_EQ(list.PopFront()->value, 1);
  EXPECT_EQ(list.PopFront()->value, 2);
  EXPECT_EQ(list.PopFront()->value, 3);
  EXPECT_TRUE(list.Empty());
  EXPECT_EQ(list.PopFront(), nullptr);
}

TEST(IntrusiveListTest, PushFrontAndBack) {
  IntrusiveList<Node> list;
  Node a(1);
  Node b(2);
  list.PushBack(&a);
  list.PushFront(&b);
  EXPECT_EQ(list.Front()->value, 2);
  EXPECT_EQ(list.Back()->value, 1);
}

TEST(IntrusiveListTest, RemoveFromMiddle) {
  IntrusiveList<Node> list;
  Node a(1);
  Node b(2);
  Node c(3);
  list.PushBack(&a);
  list.PushBack(&b);
  list.PushBack(&c);
  list.Remove(&b);
  EXPECT_EQ(list.Size(), 2u);
  EXPECT_EQ(list.PopFront()->value, 1);
  EXPECT_EQ(list.PopFront()->value, 3);
  EXPECT_FALSE(b.IsLinked());
}

TEST(IntrusiveListTest, ReusableAfterRemove) {
  IntrusiveList<Node> list;
  Node a(1);
  list.PushBack(&a);
  list.PopFront();
  list.PushBack(&a);  // relinking must be allowed
  EXPECT_EQ(list.Size(), 1u);
}

TEST(IntrusiveListTest, Iteration) {
  IntrusiveList<Node> list;
  Node nodes[] = {Node(1), Node(2), Node(3)};
  for (auto& n : nodes) {
    list.PushBack(&n);
  }
  int sum = 0;
  for (Node* n : list) {
    sum += n->value;
  }
  EXPECT_EQ(sum, 6);
}

TEST(IntrusiveListDeathTest, DoubleInsertAborts) {
  IntrusiveList<Node> list;
  Node a(1);
  list.PushBack(&a);
  EXPECT_DEATH(list.PushBack(&a), "already on a list");
}

// ---- ring_buffer.h ----

TEST(SpscRingTest, PushPopOrder) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 8; i++) {
    EXPECT_TRUE(ring.TryPush(i));
  }
  EXPECT_FALSE(ring.TryPush(99)) << "ring should be full";
  int out;
  for (int i = 0; i < 8; i++) {
    ASSERT_TRUE(ring.TryPop(&out));
    EXPECT_EQ(out, i);
  }
  EXPECT_FALSE(ring.TryPop(&out));
}

TEST(SpscRingTest, WrapAround) {
  SpscRing<int> ring(4);
  int out;
  for (int round = 0; round < 100; round++) {
    EXPECT_TRUE(ring.TryPush(round));
    ASSERT_TRUE(ring.TryPop(&out));
    EXPECT_EQ(out, round);
  }
  EXPECT_TRUE(ring.Empty());
}

TEST(SpscRingTest, SizeApprox) {
  SpscRing<int> ring(16);
  EXPECT_EQ(ring.SizeApprox(), 0u);
  ring.TryPush(1);
  ring.TryPush(2);
  EXPECT_EQ(ring.SizeApprox(), 2u);
  EXPECT_EQ(ring.Capacity(), 16u);
}

TEST(SpscRingDeathTest, NonPowerOfTwoRejected) {
  EXPECT_DEATH(SpscRing<int>(10), "power of two");
}

// ---- bitmap.h ----

TEST(BitmapTest, SetClearTest) {
  Bitmap64 bm;
  EXPECT_TRUE(bm.None());
  bm.Set(0);
  bm.Set(63);
  EXPECT_TRUE(bm.Test(0));
  EXPECT_TRUE(bm.Test(63));
  EXPECT_FALSE(bm.Test(32));
  EXPECT_EQ(bm.Count(), 2);
  bm.Clear(63);
  EXPECT_FALSE(bm.Test(63));
}

TEST(BitmapTest, HighestSetIsPriorityOrder) {
  Bitmap64 bm;
  EXPECT_EQ(bm.HighestSet(), -1);
  bm.Set(3);
  bm.Set(41);
  bm.Set(7);
  EXPECT_EQ(bm.HighestSet(), 41);
}

TEST(BitmapTest, ExchangeTakesAllBits) {
  Bitmap64 bm;
  bm.Set(1);
  bm.Set(2);
  const std::uint64_t old = bm.Exchange(0);
  EXPECT_EQ(old, 0b110u);
  EXPECT_TRUE(bm.None());
}

TEST(BitmapTest, OrMergesBits) {
  Bitmap64 bm;
  bm.Or(0b101);
  EXPECT_TRUE(bm.Test(0));
  EXPECT_TRUE(bm.Test(2));
  EXPECT_EQ(bm.Count(), 2);
}

}  // namespace
}  // namespace skyloft
