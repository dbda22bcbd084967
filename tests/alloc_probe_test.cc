// Allocation-counting tests for the zero-allocation key-probe paths:
// this TU replaces global operator new to count heap allocations, then
// asserts that steady-state probes (existing keys/groups) perform none.
// Inserts of genuinely new keys are allowed to allocate — that is the
// KeyView::Materialize contract.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "common/tuple.h"
#include "exec/aggregate_op.h"
#include "exec/operator.h"
#include "exec/project.h"
#include "exec/punct_groupby.h"
#include "exec/sym_hash_join.h"
#include "stream/element_batch.h"

namespace {
std::atomic<uint64_t> g_allocs{0};
}  // namespace

// Out of line on purpose: inlined into a call site, GCC pairs the
// replaced new with free() (or malloc with delete) and reports a
// mismatched allocation (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new(std::size_t size,
                                     std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), size) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
[[gnu::noinline]] void* operator new[](std::size_t size,
                                       std::align_val_t align) {
  return ::operator new(size, align);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t,
                                       std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t,
                                         std::align_val_t) noexcept {
  std::free(p);
}

namespace sqp {
namespace {

template <typename Fn>
uint64_t CountAllocs(Fn&& fn) {
  const uint64_t before = g_allocs.load(std::memory_order_relaxed);
  fn();
  return g_allocs.load(std::memory_order_relaxed) - before;
}

TEST(AllocProbeTest, KeyViewHashAndEqualityMatchOwningKey) {
  TupleRef t = MakeTuple(7, {Value(int64_t{42}), Value(3.5), Value("abc")});
  std::vector<int> cols = {0, 2};
  Key owned = ExtractKey(*t, cols);
  KeyView view(*t, cols);
  KeyHash hash;
  EXPECT_EQ(hash(owned), hash(view));
  EXPECT_TRUE(KeyEq{}(view, owned));
  EXPECT_TRUE(KeyEq{}(owned, view));
  EXPECT_EQ(view.Materialize(), owned);
}

TEST(AllocProbeTest, KeyMapProbeIsAllocationFree) {
  KeyMap<int> map;
  std::vector<int> cols = {0};
  std::vector<TupleRef> keep;
  for (int64_t k = 0; k < 64; ++k) {
    keep.push_back(MakeTuple(k, {Value(k)}));
    map.emplace(ExtractKey(*keep.back(), cols), static_cast<int>(k));
  }
  TupleRef hit = MakeTuple(0, {Value(int64_t{17})});
  TupleRef miss = MakeTuple(0, {Value(int64_t{9999})});
  int found = -1;
  bool miss_found = true;
  uint64_t allocs = CountAllocs([&] {
    auto it = map.find(KeyView(*hit, cols));
    if (it != map.end()) found = it->second;
    // A missing key must not allocate either — only a real insert may.
    miss_found = map.find(KeyView(*miss, cols)) != map.end();
  });
  EXPECT_EQ(found, 17);
  EXPECT_FALSE(miss_found);
  EXPECT_EQ(allocs, 0u);
}

TEST(AllocProbeTest, KeySetDuplicateProbeIsAllocationFree) {
  KeySet seen;
  std::vector<int> cols = {0};
  TupleRef t = MakeTuple(0, {Value(int64_t{5})});
  seen.insert(KeyView(*t, cols).Materialize());
  bool hit = false;
  uint64_t allocs = CountAllocs(
      [&] { hit = seen.find(KeyView(*t, cols)) != seen.end(); });
  EXPECT_TRUE(hit);
  EXPECT_EQ(allocs, 0u);
}

TEST(AllocProbeTest, SymHashJoinExistingKeyPushIsAllocationFree) {
  // Warm up one key on the left side far enough that the bucket vector
  // has spare capacity; then a further same-key push probes the (empty-
  // for-this-key) right table and appends — zero allocations.
  SymmetricHashJoinOp join({0}, {0});
  CountingSink sink;
  join.SetOutput(&sink);
  std::vector<Element> warm;
  for (int64_t i = 0; i < 9; ++i) {
    warm.push_back(Element(MakeTuple(i, {Value(int64_t{1}), Value(i)})));
  }
  for (const Element& e : warm) join.Push(e, 0);
  // Give the right table a different key so the probe hits a bucket but
  // finds no match vector for key 1.
  Element right(MakeTuple(0, {Value(int64_t{2}), Value(int64_t{0})}));
  join.Push(right, 1);

  Element next(MakeTuple(10, {Value(int64_t{1}), Value(int64_t{10})}));
  uint64_t allocs = CountAllocs([&] { join.Push(next, 0); });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(join.stats().tuples_in, 11u);
}

TEST(AllocProbeTest, GroupByFoldIntoExistingGroupIsAllocationFree) {
  GroupByOptions opt;
  opt.key_cols = {0};
  opt.aggs = {{AggKind::kCount, -1, 0.5}, {AggKind::kSum, 1, 0.5}};
  opt.window_size = 0;  // Unwindowed: emission only at Flush.
  GroupByAggregateOp agg(opt);
  CountingSink sink;
  agg.SetOutput(&sink);
  for (int64_t i = 0; i < 8; ++i) {
    agg.Push(Element(MakeTuple(i, {Value(i % 4), Value(i)})));
  }
  Element next(MakeTuple(8, {Value(int64_t{2}), Value(int64_t{8})}));
  uint64_t allocs = CountAllocs([&] { agg.Push(next); });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(agg.open_groups(), 4u);
}

TEST(AllocProbeTest, DistinctDuplicateIsAllocationFree) {
  DistinctOp distinct({0});
  CountingSink sink;
  distinct.SetOutput(&sink);
  distinct.Push(Element(MakeTuple(0, {Value(int64_t{3})})));
  Element dup(MakeTuple(1, {Value(int64_t{3})}));
  uint64_t allocs = CountAllocs([&] { distinct.Push(dup); });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(sink.tuples(), 1u);
}

TEST(AllocProbeTest, PunctGroupByExistingGroupIsAllocationFree) {
  // Value-keyed grouping was already heterogeneous (probes by const
  // Value&); pin the zero-allocation property here so it stays true.
  PunctuationGroupByOp agg(0, {{AggKind::kCount, -1, 0.5}});
  CountingSink sink;
  agg.SetOutput(&sink);
  for (int64_t i = 0; i < 4; ++i) {
    agg.Push(Element(MakeTuple(i, {Value(int64_t{7}), Value(i)})));
  }
  Element next(MakeTuple(4, {Value(int64_t{7}), Value(int64_t{4})}));
  uint64_t allocs = CountAllocs([&] { agg.Push(next); });
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(agg.open_groups(), 1u);
}

TEST(AllocProbeTest, ElementBatchSmallBufferIsInline) {
  size_t size = 0;
  uint64_t allocs = CountAllocs([&] {
    ElementBatch batch;
    for (int i = 0; i < 8; ++i) {
      batch.push_back(Element(Punctuation::Watermark(i)));
    }
    size = batch.size();
  });
  EXPECT_EQ(size, 8u);
  EXPECT_EQ(allocs, 0u);
}

TEST(AllocProbeTest, ElementBatchSpillsAndMoves) {
  ElementBatch batch;
  for (int64_t i = 0; i < 40; ++i) {
    batch.push_back(i % 5 == 0
                        ? Element(Punctuation::Watermark(i))
                        : Element(MakeTuple(i, {Value(i)})));
  }
  ASSERT_EQ(batch.size(), 40u);
  ElementBatch moved(std::move(batch));
  EXPECT_EQ(moved.size(), 40u);
  EXPECT_TRUE(batch.empty());  // NOLINT(bugprone-use-after-move)
  int64_t i = 0;
  for (const Element& e : moved) {
    if (i % 5 == 0) {
      ASSERT_TRUE(e.is_punctuation());
      EXPECT_EQ(e.punctuation().ts, i);
    } else {
      ASSERT_TRUE(e.is_tuple());
      EXPECT_EQ(e.tuple()->ts(), i);
    }
    ++i;
  }
  // Cleared batches keep their capacity: refilling is allocation-free.
  moved.clear();
  uint64_t allocs = CountAllocs([&] {
    for (int64_t j = 0; j < 40; ++j) {
      moved.push_back(Element(Punctuation::Watermark(j)));
    }
  });
  EXPECT_EQ(allocs, 0u);
}

}  // namespace
}  // namespace sqp
