#include "storage/lru_cache.hpp"

#include <gtest/gtest.h>

namespace flo::storage {
namespace {

BlockKey key(FileId f, std::uint64_t b) { return {f, b}; }

TEST(BlockKeyTest, PackUnpackRoundTrip) {
  const BlockKey k{7, (1ull << 40) - 1};
  const BlockKey u = BlockKey::unpack(k.packed());
  EXPECT_EQ(u, k);
}

TEST(BlockKeyTest, DistinctFilesDistinctKeys) {
  EXPECT_NE(key(0, 5).packed(), key(1, 5).packed());
  EXPECT_NE(key(0, 5).packed(), key(0, 6).packed());
}

TEST(LruCacheTest, ZeroCapacityRejected) {
  EXPECT_THROW(LruCache(0), std::invalid_argument);
}

TEST(LruCacheTest, InsertAndContains) {
  LruCache cache(2);
  EXPECT_FALSE(cache.contains(key(0, 1)));
  EXPECT_EQ(cache.insert(key(0, 1)), std::nullopt);
  EXPECT_TRUE(cache.contains(key(0, 1)));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache cache(2);
  cache.insert(key(0, 1));
  cache.insert(key(0, 2));
  const auto evicted = cache.insert(key(0, 3));
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->key, key(0, 1));
  EXPECT_FALSE(cache.contains(key(0, 1)));
  EXPECT_TRUE(cache.contains(key(0, 2)));
  EXPECT_TRUE(cache.contains(key(0, 3)));
}

TEST(LruCacheTest, TouchPromotes) {
  LruCache cache(2);
  cache.insert(key(0, 1));
  cache.insert(key(0, 2));
  EXPECT_TRUE(cache.touch(key(0, 1)));  // 1 becomes MRU
  const auto evicted = cache.insert(key(0, 3));
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->key, key(0, 2));  // 2 was LRU
}

TEST(LruCacheTest, TouchMissingReturnsFalse) {
  LruCache cache(2);
  EXPECT_FALSE(cache.touch(key(0, 9)));
}

TEST(LruCacheTest, ReinsertResidentPromotesWithoutEviction) {
  LruCache cache(2);
  cache.insert(key(0, 1));
  cache.insert(key(0, 2));
  EXPECT_EQ(cache.insert(key(0, 1)), std::nullopt);
  EXPECT_EQ(cache.size(), 2u);
  const auto evicted = cache.insert(key(0, 3));
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->key, key(0, 2));
}

TEST(LruCacheTest, Erase) {
  LruCache cache(2);
  cache.insert(key(0, 1));
  EXPECT_TRUE(cache.erase(key(0, 1)));
  EXPECT_FALSE(cache.erase(key(0, 1)));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(LruCacheTest, LruKeyInspection) {
  LruCache cache(3);
  EXPECT_EQ(cache.lru_key(), std::nullopt);
  cache.insert(key(0, 1));
  cache.insert(key(0, 2));
  EXPECT_EQ(cache.lru_key(), std::optional<BlockKey>(key(0, 1)));
  cache.touch(key(0, 1));
  EXPECT_EQ(cache.lru_key(), std::optional<BlockKey>(key(0, 2)));
}

TEST(LruCacheTest, Clear) {
  LruCache cache(2);
  cache.insert(key(0, 1));
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.contains(key(0, 1)));
}

TEST(LruCacheTest, CapacityNeverExceeded) {
  LruCache cache(16);
  for (std::uint64_t b = 0; b < 1000; ++b) {
    cache.insert(key(0, b));
    EXPECT_LE(cache.size(), 16u);
  }
  // The 16 most recent blocks remain.
  for (std::uint64_t b = 984; b < 1000; ++b) {
    EXPECT_TRUE(cache.contains(key(0, b)));
  }
}

TEST(LruCacheTest, FilesDoNotCollide) {
  LruCache cache(4);
  cache.insert(key(0, 7));
  cache.insert(key(1, 7));
  EXPECT_TRUE(cache.contains(key(0, 7)));
  EXPECT_TRUE(cache.contains(key(1, 7)));
  EXPECT_EQ(cache.size(), 2u);
}

TEST(LruCacheTest, TouchRunMatchesSequentialTouches) {
  LruCache run_cache(6);
  LruCache loop_cache(6);
  for (std::uint64_t b = 0; b < 6; ++b) {
    run_cache.insert(key(0, b));
    loop_cache.insert(key(0, b));
  }
  EXPECT_EQ(run_cache.touch_run(key(0, 1), 4), 4u);
  for (std::uint64_t b = 1; b < 5; ++b) EXPECT_TRUE(loop_cache.touch(key(0, b)));
  // Identical recency order afterwards: evictions proceed identically.
  for (std::uint64_t b = 100; b < 106; ++b) {
    EXPECT_EQ(run_cache.insert(key(0, b)), loop_cache.insert(key(0, b)));
  }
}

TEST(LruCacheTest, DirtyBitFollowsTheBlockUntilItLeaves) {
  LruCache cache(2);
  EXPECT_EQ(cache.insert(key(0, 1), 0, /*dirty=*/true), std::nullopt);
  cache.insert(key(0, 2));
  // A clean block leaves clean; the written one leaves dirty.
  EXPECT_EQ(cache.insert(key(0, 3)), (Victim{key(0, 1), true}));
  EXPECT_EQ(cache.insert(key(0, 4)), (Victim{key(0, 2), false}));
  // A write hit dirties a resident block, a read hit leaves it as it is,
  // and a write re-insert of a resident block dirties it too.
  EXPECT_TRUE(cache.touch(key(0, 3), /*dirty=*/true));
  EXPECT_TRUE(cache.touch(key(0, 3)));
  EXPECT_EQ(cache.insert(key(0, 4), 0, /*dirty=*/true), std::nullopt);
  EXPECT_EQ(cache.insert(key(0, 5)), (Victim{key(0, 3), true}));
  EXPECT_EQ(cache.insert(key(0, 6)), (Victim{key(0, 4), true}));
  // Block 5 reused block 3's dirty entry, yet leaves clean.
  EXPECT_EQ(cache.insert(key(0, 7)), (Victim{key(0, 5), false}));
  // Erased and refilled, a block is clean again.
  cache.insert(key(0, 8), 0, /*dirty=*/true);
  EXPECT_TRUE(cache.erase(key(0, 8)));
  cache.insert(key(0, 8));
  EXPECT_EQ(cache.insert(key(0, 9)), (Victim{key(0, 7), false}));
  EXPECT_EQ(cache.insert(key(0, 10)), (Victim{key(0, 8), false}));
}

TEST(LruCacheTest, ZeroCapacityCacheRefusesABlockWithItsDirtyBit) {
  // A default-constructed cache holds nothing: the block comes straight
  // back as its own victim, still dirty, so its write-back is not lost.
  LruCache cache;
  EXPECT_EQ(cache.insert(key(0, 1), 0, /*dirty=*/true),
            (Victim{key(0, 1), true}));
  EXPECT_EQ(cache.insert(key(0, 2)), (Victim{key(0, 2), false}));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(LruCacheTest, TouchRunStopsAtFirstMiss) {
  LruCache cache(8);
  cache.insert(key(0, 0));
  cache.insert(key(0, 1));
  cache.insert(key(0, 3));  // hole at block 2
  EXPECT_EQ(cache.touch_run(key(0, 0), 4), 2u);
  EXPECT_EQ(cache.touch_run(key(0, 2), 4), 0u);
}

}  // namespace
}  // namespace flo::storage
