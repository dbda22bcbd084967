// Unit and stress tests for Channel, the bounded hand-off behind every
// threaded executor: conservation ledgers under concurrent producers,
// punctuation bypass, weighted columnar drops, wake-ups and shutdown.
#include "exec/channel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "common/rng.h"

namespace sqp {
namespace {

Element Tup(int64_t ts) { return Element(MakeTuple(ts, {Value(ts)})); }
Element Wm(int64_t ts) { return Element(Punctuation::Watermark(ts)); }

ChannelItem Row(Element e) { return ChannelItem{std::move(e), 0}; }

/// A columnar item of `rows` tuples with a watermark after every
/// `punct_every` of them (0 = none).
ChannelItem Columns(int rows, int punct_every) {
  ElementBatch batch;
  for (int i = 0; i < rows; ++i) {
    batch.push_back(Tup(i));
    if (punct_every != 0 && (i + 1) % punct_every == 0) batch.push_back(Wm(i));
  }
  ChannelItem item;
  item.cols = std::make_unique<ColumnBatch>();
  EXPECT_TRUE(ColumnBatch::FromRows(batch, item.cols.get()));
  return item;
}

void ExpectBooksBalance(const ChannelStats& s) {
  EXPECT_EQ(s.accepted, s.popped + s.depth);
  EXPECT_LE(s.depth, s.max_depth);
}

/// Producers offer singles, chunks and columnar items (counting every
/// element they offer) while one consumer claims; the channel is closed
/// or stopped mid-stream. Every offered element must be accounted for.
void RunLedgerStress(Backpressure bp, bool stop_instead_of_close) {
  Channel::Options o;
  o.limit = 16;
  o.backpressure = bp;
  o.wake_batch = 4;
  Channel ch(o);

  std::atomic<uint64_t> offered{0};
  std::atomic<uint64_t> consumed{0};
  std::thread consumer([&] {
    std::deque<ChannelItem> got;
    for (;;) {
      got.clear();
      size_t w = 0;
      Channel::ClaimResult r = ch.Claim(&got, 8, &w);
      if (r == Channel::ClaimResult::kClosed ||
          r == Channel::ClaimResult::kStopped) {
        return;
      }
      uint64_t sum = 0;
      for (const ChannelItem& item : got) sum += item.Weight();
      EXPECT_EQ(sum, w);
      consumed.fetch_add(w, std::memory_order_relaxed);
    }
  });

  constexpr int kProducers = 4;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      Rng rng(static_cast<uint64_t>(p) + 1);
      for (int i = 0; i < 3000; ++i) {
        switch (rng.Uniform(4)) {
          case 0: {
            ChannelItem item = Row(i % 50 == 0 ? Wm(i) : Tup(i));
            offered.fetch_add(1, std::memory_order_relaxed);
            ch.Push(std::move(item));
            break;
          }
          case 1: {
            std::vector<ChannelItem> chunk;
            for (int k = 0; k < 6; ++k) {
              chunk.push_back(Row(k == 5 ? Wm(i) : Tup(i)));
            }
            offered.fetch_add(6, std::memory_order_relaxed);
            ch.PushChunk(chunk);
            break;
          }
          case 2: {
            std::vector<ChannelItem> chunk;
            chunk.push_back(Columns(5, 2));  // Weight 5 rows + 2 puncts.
            chunk.push_back(Row(Tup(i)));
            offered.fetch_add(8, std::memory_order_relaxed);
            ch.PushChunk(chunk);
            break;
          }
          default: {
            ChannelItem item = Columns(3, 0);
            offered.fetch_add(3, std::memory_order_relaxed);
            ch.Push(std::move(item));
            break;
          }
        }
      }
    });
  }
  // Let the producers run into the bound, then shut the channel while
  // some of them are still offering (and possibly blocked).
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  if (stop_instead_of_close) {
    ch.Stop();
  } else {
    ch.Close();
  }
  for (std::thread& t : producers) t.join();
  consumer.join();

  const ChannelStats s = ch.Stats();
  EXPECT_EQ(offered.load(), s.accepted + s.dropped + s.refused);
  ExpectBooksBalance(s);
  EXPECT_EQ(consumed.load(), s.popped);
  if (!stop_instead_of_close) {
    EXPECT_EQ(s.depth, 0u);  // Close drains.
  }
  if (bp == Backpressure::kBlock) {
    EXPECT_EQ(s.dropped, 0u);
  }
}

TEST(ChannelTest, LedgerHoldsUnderBlockingProducersAndClose) {
  RunLedgerStress(Backpressure::kBlock, false);
}

TEST(ChannelTest, LedgerHoldsUnderBlockingProducersAndStop) {
  RunLedgerStress(Backpressure::kBlock, true);
}

TEST(ChannelTest, LedgerHoldsUnderDroppingProducersAndClose) {
  RunLedgerStress(Backpressure::kDropNewest, false);
}

TEST(ChannelTest, LedgerHoldsUnderDroppingProducersAndStop) {
  RunLedgerStress(Backpressure::kDropNewest, true);
}

TEST(ChannelTest, PunctuationBypassesFullBound) {
  for (Backpressure bp : {Backpressure::kBlock, Backpressure::kDropNewest}) {
    Channel::Options o;
    o.limit = 2;
    o.backpressure = bp;
    Channel ch(o);
    EXPECT_TRUE(ch.Push(Row(Tup(1))));
    EXPECT_TRUE(ch.Push(Row(Tup(2))));
    if (bp == Backpressure::kDropNewest) {
      EXPECT_FALSE(ch.Push(Row(Tup(3))));  // Full: the tuple is shed.
    }
    // The watermark neither blocks nor drops, single or chunked.
    EXPECT_TRUE(ch.Push(Row(Wm(5))));
    std::vector<ChannelItem> chunk;
    chunk.push_back(Row(Wm(6)));
    ch.PushChunk(chunk);

    ChannelStats s = ch.Stats();
    EXPECT_EQ(s.accepted, 4u);
    EXPECT_EQ(s.depth, 4u);  // Over the bound by the two punctuations.
    EXPECT_EQ(s.dropped, bp == Backpressure::kDropNewest ? 1u : 0u);

    std::deque<ChannelItem> got;
    size_t w = 0;
    ASSERT_EQ(ch.Claim(&got, 100, &w), Channel::ClaimResult::kItems);
    ASSERT_EQ(got.size(), 4u);
    EXPECT_TRUE(got[2].e.is_punctuation());
    EXPECT_EQ(got[3].e.punctuation().ts, 6);
  }
}

TEST(ChannelTest, ColumnarDropReadmitsPunctuationSlots) {
  Channel::Options o;
  o.limit = 1;
  o.backpressure = Backpressure::kDropNewest;
  Channel ch(o);
  ASSERT_TRUE(ch.Push(Row(Tup(0))));  // Channel is now full.

  std::vector<ChannelItem> chunk;
  chunk.push_back(Columns(6, 3));  // 6 rows, watermarks after rows 3, 6.
  chunk.push_back(Row(Tup(7)));    // Plain row behind it: dropped too.
  ch.PushChunk(chunk);

  ChannelStats s = ch.Stats();
  EXPECT_EQ(s.dropped, 7u);   // The six columnar rows and the row.
  EXPECT_EQ(s.accepted, 3u);  // The first row and both watermarks.
  ExpectBooksBalance(s);

  std::deque<ChannelItem> got;
  size_t w = 0;
  ASSERT_EQ(ch.Claim(&got, 100, &w), Channel::ClaimResult::kItems);
  EXPECT_EQ(w, 3u);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_TRUE(got[0].e.is_tuple());
  ASSERT_TRUE(got[1].e.is_punctuation());
  ASSERT_TRUE(got[2].e.is_punctuation());
  EXPECT_EQ(got[1].e.punctuation().ts, 2);
  EXPECT_EQ(got[2].e.punctuation().ts, 5);
  EXPECT_EQ(got[1].cols, nullptr);  // Re-admitted as row items.
}

TEST(ChannelTest, ClaimTakesAtMostMaxElementsPerCall) {
  Channel ch(Channel::Options{});
  for (int i = 0; i < 10; ++i) ch.Push(Row(Tup(i)));
  std::deque<ChannelItem> got;
  size_t w = 0;
  ASSERT_EQ(ch.Claim(&got, 4, &w), Channel::ClaimResult::kItems);
  EXPECT_EQ(w, 4u);
  EXPECT_EQ(got.size(), 4u);
  EXPECT_EQ(got.front().e.tuple()->ts(), 0);
  EXPECT_EQ(ch.Stats().depth, 6u);
}

/// Runs Claim on another thread; returns what it reported.
std::future<Channel::ClaimResult> ClaimAsync(Channel& ch) {
  return std::async(std::launch::async, [&ch] {
    std::deque<ChannelItem> got;
    size_t w = 0;
    return ch.Claim(&got, 100, &w);
  });
}

TEST(ChannelTest, ReachingWakeThresholdWakesSleepingConsumer) {
  // wake_batch 1 means no poll timeout: a consumer asleep on the empty
  // channel returns only if a push notifies it. A weighted columnar item
  // jumps the depth from 0 to 4 — past the threshold, never equal to it.
  for (bool columnar : {false, true}) {
    Channel::Options o;
    o.wake_batch = 1;
    Channel ch(o);
    auto claim = ClaimAsync(ch);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ch.Push(columnar ? Columns(4, 0) : Row(Tup(1)));
    ASSERT_EQ(claim.wait_for(std::chrono::seconds(10)),
              std::future_status::ready)
        << "consumer not woken (columnar=" << columnar << ")";
    EXPECT_EQ(claim.get(), Channel::ClaimResult::kItems);
  }
}

TEST(ChannelTest, SubThresholdTrickleIsPickedUpByPoll) {
  Channel::Options o;
  o.wake_batch = 64;
  Channel ch(o);
  auto claim = ClaimAsync(ch);
  ch.Push(Row(Tup(1)));  // Far below the threshold: no notify.
  ASSERT_EQ(claim.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  // Either the poll found the tuple or it timed out idle first.
  Channel::ClaimResult r = claim.get();
  EXPECT_TRUE(r == Channel::ClaimResult::kItems ||
              r == Channel::ClaimResult::kIdle);
}

TEST(ChannelTest, StopWakesBlockedProducersAndConsumer) {
  Channel::Options full_opts;
  full_opts.limit = 1;
  Channel full(full_opts);
  ASSERT_TRUE(full.Push(Row(Tup(0))));
  std::vector<std::future<bool>> producers;
  for (int i = 0; i < 3; ++i) {
    producers.push_back(std::async(std::launch::async, [&full, i] {
      if (i == 2) {
        std::vector<ChannelItem> chunk;
        chunk.push_back(Row(Tup(1)));
        chunk.push_back(Row(Tup(2)));
        full.PushChunk(chunk);
        return false;
      }
      return full.Push(Row(Tup(1)));
    }));
  }
  Channel::Options empty_opts;
  empty_opts.wake_batch = 1;  // No poll: only Stop can wake it.
  Channel empty(empty_opts);
  auto consumer = ClaimAsync(empty);

  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  for (auto& p : producers) {
    EXPECT_EQ(p.wait_for(std::chrono::milliseconds(0)),
              std::future_status::timeout);
  }
  full.Stop();
  empty.Stop();
  for (auto& p : producers) {
    ASSERT_EQ(p.wait_for(std::chrono::seconds(10)), std::future_status::ready);
    EXPECT_FALSE(p.get());
  }
  ASSERT_EQ(consumer.wait_for(std::chrono::seconds(10)),
            std::future_status::ready);
  EXPECT_EQ(consumer.get(), Channel::ClaimResult::kStopped);

  ChannelStats s = full.Stats();
  EXPECT_EQ(s.refused, 4u);  // Two singles and the two-row chunk.
  EXPECT_EQ(s.accepted, 1u);
  EXPECT_FALSE(full.Push(Row(Tup(9))));  // Stopped stays stopped.
}

TEST(ChannelTest, CloseDrainsThenReportsClosed) {
  Channel::Options o;
  o.wake_batch = 1;
  Channel ch(o);
  ch.Push(Row(Tup(1)));
  ch.Close();
  EXPECT_FALSE(ch.Push(Row(Tup(2))));
  std::deque<ChannelItem> got;
  size_t w = 0;
  EXPECT_EQ(ch.Claim(&got, 100, &w), Channel::ClaimResult::kItems);
  EXPECT_EQ(w, 1u);
  EXPECT_EQ(ch.Claim(&got, 100, &w), Channel::ClaimResult::kClosed);
  EXPECT_EQ(ch.Stats().refused, 1u);
}

}  // namespace
}  // namespace sqp
