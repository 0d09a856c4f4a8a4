#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "support/bounded_queue.hpp"

namespace viprof::support {
namespace {

TEST(BoundedQueue, FifoOrder) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  EXPECT_TRUE(q.push(3));
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), 3);
}

TEST(BoundedQueue, TryPushRefusesWhenFull) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.pop(), 1);
  EXPECT_TRUE(q.try_push(3));
}

// A refused push must not consume its item: the server hands a refused
// batch's arena back to its pool, which needs the batch still whole.
TEST(BoundedQueue, RefusedPushLeavesItemIntact) {
  BoundedQueue<std::unique_ptr<int>> q(1);
  auto first = std::make_unique<int>(1);
  ASSERT_TRUE(q.try_push(std::move(first)));
  EXPECT_EQ(first, nullptr);  // moved in on success

  auto refused = std::make_unique<int>(2);
  EXPECT_FALSE(q.try_push(std::move(refused)));  // full
  ASSERT_NE(refused, nullptr);
  EXPECT_EQ(*refused, 2);

  q.close();
  EXPECT_FALSE(q.push(std::move(refused)));  // closed
  ASSERT_NE(refused, nullptr);
  EXPECT_EQ(*refused, 2);
  EXPECT_EQ(*q.pop().value(), 1);
}

TEST(BoundedQueue, ZeroCapacityClampsToOne) {
  BoundedQueue<int> q(0);
  EXPECT_EQ(q.capacity(), 1u);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_FALSE(q.try_push(2));
}

TEST(BoundedQueue, PushBlocksUntilPopMakesRoom) {
  BoundedQueue<int> q(1);
  ASSERT_TRUE(q.push(1));
  std::atomic<bool> second_landed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.push(2));  // blocks until the consumer pops
    second_landed = true;
  });
  // The producer must be parked: the queue is full.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(second_landed.load());
  EXPECT_EQ(q.pop(), 1);
  producer.join();
  EXPECT_TRUE(second_landed.load());
  EXPECT_EQ(q.pop(), 2);
}

TEST(BoundedQueue, CloseDrainsThenExhausts) {
  BoundedQueue<int> q(4);
  ASSERT_TRUE(q.push(1));
  ASSERT_TRUE(q.push(2));
  q.close();
  EXPECT_FALSE(q.push(3));  // rejected after close
  EXPECT_EQ(q.pop(), 1);    // buffered items still drain
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), std::nullopt);  // then exhausted, not blocked
}

TEST(BoundedQueue, CloseWakesBlockedConsumer) {
  BoundedQueue<int> q(1);
  std::thread consumer([&] { EXPECT_EQ(q.pop(), std::nullopt); });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  q.close();
  consumer.join();
}

TEST(BoundedQueue, PopForExpiresEmptyThenDrainsAfterClose) {
  BoundedQueue<int> q(4);
  // Expiry on an empty open queue: nullopt, but the queue is NOT closed —
  // the caller uses closed() to tell a timeout from a shutdown.
  EXPECT_EQ(q.pop_for(std::chrono::milliseconds(5)), std::nullopt);
  EXPECT_FALSE(q.closed());
  ASSERT_TRUE(q.push(7));
  q.close();
  // Closed but not drained: the buffered item is still delivered.
  EXPECT_EQ(q.pop_for(std::chrono::milliseconds(5)), 7);
  // Closed and drained: immediate exhaustion, no timeout wait.
  EXPECT_EQ(q.pop_for(std::chrono::hours(1)), std::nullopt);
  EXPECT_TRUE(q.closed());
}

TEST(BoundedQueue, PopForRacingCloseNeverDropsTheLastItem) {
  // A consumer parked in a timed pop while the producer pushes one final
  // item and immediately closes: the item must be delivered, and the
  // consumer must wake from close() without waiting out the full timeout.
  for (int round = 0; round < 50; ++round) {
    BoundedQueue<int> q(2);
    std::optional<int> got;
    std::optional<int> after;
    std::thread consumer([&] {
      got = q.pop_for(std::chrono::seconds(10));
      after = q.pop_for(std::chrono::seconds(10));
    });
    ASSERT_TRUE(q.push(int{round}));
    q.close();
    consumer.join();  // bounded by close(), not by the 10 s timeouts
    EXPECT_EQ(got, round);
    EXPECT_EQ(after, std::nullopt);
  }
}

TEST(BoundedQueue, PopForTimedWaitWokenByLatePush) {
  BoundedQueue<int> q(1);
  std::optional<int> got;
  std::thread consumer(
      [&] { got = q.pop_for(std::chrono::seconds(10)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(q.push(42));
  consumer.join();
  EXPECT_EQ(got, 42);
}

TEST(BoundedQueue, ManyProducersManyConsumers) {
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 500;
  BoundedQueue<int> q(8);
  std::atomic<int> consumed{0};
  std::atomic<long long> sum{0};

  std::vector<std::thread> consumers;
  for (int c = 0; c < 3; ++c) {
    consumers.emplace_back([&] {
      while (auto v = q.pop()) {
        sum += *v;
        ++consumed;
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i)
        ASSERT_TRUE(q.push(p * kPerProducer + i));
    });
  }
  for (auto& t : producers) t.join();
  q.close();
  for (auto& t : consumers) t.join();

  constexpr int kTotal = kProducers * kPerProducer;
  EXPECT_EQ(consumed.load(), kTotal);
  EXPECT_EQ(sum.load(), static_cast<long long>(kTotal) * (kTotal - 1) / 2);
}

}  // namespace
}  // namespace viprof::support
