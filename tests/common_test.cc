#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/concurrent_queue.h"
#include "common/random.h"
#include "common/resource_governor.h"
#include "common/status.h"

namespace accordion {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad dop");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad dop");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kParseError); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

Result<int> ParsePositive(int v) {
  if (v <= 0) return Status::InvalidArgument("not positive");
  return v * 2;
}

TEST(ResultTest, ValueAndErrorPaths) {
  Result<int> ok = ParsePositive(21);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);

  Result<int> err = ParsePositive(-1);
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);
}

TEST(ConcurrentQueueTest, FifoOrder) {
  ConcurrentQueue<int> q;
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(q.Push(i));
  for (int i = 0; i < 10; ++i) {
    auto v = q.TryPop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(q.TryPop().has_value());
}

TEST(ConcurrentQueueTest, CloseWakesConsumersAndRejectsPush) {
  ConcurrentQueue<int> q;
  std::thread consumer([&] {
    auto v = q.Pop();
    EXPECT_FALSE(v.has_value());
  });
  SleepForMillis(20);
  q.Close();
  consumer.join();
  EXPECT_FALSE(q.Push(1));
}

TEST(ConcurrentQueueTest, DrainsAfterClose) {
  ConcurrentQueue<int> q;
  q.Push(7);
  q.Close();
  auto v = q.Pop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 7);
  EXPECT_FALSE(q.Pop().has_value());
}

TEST(ConcurrentQueueTest, PopTimesOut) {
  ConcurrentQueue<int> q;
  Stopwatch sw;
  EXPECT_FALSE(q.Pop(/*timeout_ms=*/30).has_value());
  EXPECT_GE(sw.ElapsedMillis(), 25);
}

TEST(ConcurrentQueueTest, ManyProducersManyConsumers) {
  ConcurrentQueue<int> q;
  constexpr int kPerProducer = 500;
  constexpr int kProducers = 4;
  std::atomic<int64_t> sum{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) q.Push(p * kPerProducer + i);
    });
  }
  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      while (auto v = q.Pop()) sum += *v;
    });
  }
  for (auto& t : threads) t.join();
  q.Close();
  for (auto& t : consumers) t.join();
  int64_t n = kPerProducer * kProducers;
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TEST(ResourceGovernorTest, GrantsImmediatelyUnderBurst) {
  ResourceGovernor gov("test.cpu", /*rate=*/100.0, /*burst=*/10.0);
  Stopwatch sw;
  gov.Consume(1.0);  // Within burst -> no delay.
  EXPECT_LT(sw.ElapsedMillis(), 50);
}

TEST(ResourceGovernorTest, ThrottlesWhenDebtAccumulates) {
  // rate 10 units/s, burst 1: consuming 3 units should take ~200ms+.
  ResourceGovernor gov("test.cpu", 10.0, 1.0);
  Stopwatch sw;
  gov.Consume(1.0);
  gov.Consume(1.0);
  gov.Consume(1.0);
  EXPECT_GE(sw.ElapsedMillis(), 150);
}

TEST(ResourceGovernorTest, AggregateRateIsCapped) {
  // 4 threads hammering a 20 units/s bucket for ~0.5s should not consume
  // much more than burst + rate * elapsed.
  ResourceGovernor gov("test.cpu", 20.0, 2.0);
  std::atomic<double> consumed{0};
  std::vector<std::thread> threads;
  Stopwatch sw;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      while (sw.ElapsedMillis() < 500) {
        gov.Consume(0.5);
        consumed = consumed + 0.5;
      }
    });
  }
  for (auto& t : threads) t.join();
  double elapsed_s = sw.ElapsedSeconds();
  EXPECT_LE(consumed.load(), 2.0 + 20.0 * elapsed_s + 2.5);
}

TEST(ResourceGovernorTest, UtilizationRisesUnderLoad) {
  ResourceGovernor gov("test.nic", 1000.0, 100.0);
  EXPECT_LE(gov.Utilization(), 0.01);
  Stopwatch sw;
  while (sw.ElapsedMillis() < 700) gov.Consume(50.0);
  EXPECT_GE(gov.Utilization(), 0.5);
}

TEST(ResourceGovernorTest, TotalConsumedAccumulates) {
  ResourceGovernor gov("t", 1e9, 1e9);
  gov.Consume(3);
  gov.Consume(4);
  EXPECT_DOUBLE_EQ(gov.TotalConsumed(), 7.0);
}

TEST(RandomTest, Deterministic) {
  Random a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RandomTest, IntBoundsInclusive) {
  Random rng(7);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.NextInt(3, 6);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 6);
    saw_lo |= v == 3;
    saw_hi |= v == 6;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RandomTest, SkipEqualsDraws) {
  for (uint64_t n : {0, 1, 15, 1000}) {
    Random drawn(42), skipped(42);
    for (uint64_t i = 0; i < n; ++i) drawn.NextUint64();
    skipped.Skip(n);
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(skipped.NextUint64(), drawn.NextUint64()) << "n " << n;
    }
  }
}

TEST(RandomTest, StringLengthAndAlphabet) {
  Random rng(1);
  std::string s = rng.NextString(12);
  EXPECT_EQ(s.size(), 12u);
  for (char c : s) {
    EXPECT_GE(c, 'a');
    EXPECT_LE(c, 'z');
  }
}

}  // namespace
}  // namespace accordion
