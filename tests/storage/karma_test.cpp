#include "storage/karma.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "util/rng.hpp"

namespace flo::storage {
namespace {

TEST(KarmaTest, DensestRangesPinnedAtIoLayer) {
  std::vector<RangeHint> hints = {
      {0, 0, 10, 5.0},   // dense
      {0, 10, 20, 1.0},  // sparse
  };
  const KarmaAllocator karma(hints, /*io=*/10, /*storage=*/10);
  EXPECT_EQ(karma.level_of({0, 5}), CacheLevel::kIo);
  EXPECT_EQ(karma.level_of({0, 15}), CacheLevel::kStorage);
}

TEST(KarmaTest, OverflowBecomesUncached) {
  std::vector<RangeHint> hints = {
      {0, 0, 10, 5.0},
      {0, 10, 20, 3.0},
      {0, 20, 30, 1.0},
  };
  const KarmaAllocator karma(hints, 10, 10);
  EXPECT_EQ(karma.level_of({0, 0}), CacheLevel::kIo);
  EXPECT_EQ(karma.level_of({0, 10}), CacheLevel::kStorage);
  EXPECT_EQ(karma.level_of({0, 25}), CacheLevel::kUncached);
  EXPECT_EQ(karma.ranges_at(CacheLevel::kIo), 1u);
  EXPECT_EQ(karma.ranges_at(CacheLevel::kStorage), 1u);
  EXPECT_EQ(karma.ranges_at(CacheLevel::kUncached), 1u);
}

TEST(KarmaTest, UnhintedBlocksUncached) {
  const KarmaAllocator karma({{0, 0, 4, 1.0}}, 8, 8);
  EXPECT_EQ(karma.level_of({0, 100}), CacheLevel::kUncached);
  EXPECT_EQ(karma.level_of({3, 0}), CacheLevel::kUncached);
}

TEST(KarmaTest, MultipleFiles) {
  std::vector<RangeHint> hints = {
      {0, 0, 5, 9.0},
      {2, 0, 5, 8.0},
  };
  const KarmaAllocator karma(hints, 10, 0);
  EXPECT_EQ(karma.level_of({0, 2}), CacheLevel::kIo);
  EXPECT_EQ(karma.level_of({2, 2}), CacheLevel::kIo);
  EXPECT_EQ(karma.level_of({1, 2}), CacheLevel::kUncached);
}

TEST(KarmaTest, SmallerRangeCanFillRemainingIoSpace) {
  // Greedy by density: a big medium-density range that does not fit the
  // remaining I/O space drops to the storage layer, while a later smaller
  // range may still fit above.
  std::vector<RangeHint> hints = {
      {0, 0, 8, 9.0},
      {0, 8, 24, 5.0},  // 16 blocks: does not fit remaining 2
      {0, 24, 26, 4.0}, // 2 blocks: fits
  };
  const KarmaAllocator karma(hints, 10, 100);
  EXPECT_EQ(karma.level_of({0, 0}), CacheLevel::kIo);
  EXPECT_EQ(karma.level_of({0, 10}), CacheLevel::kStorage);
  EXPECT_EQ(karma.level_of({0, 24}), CacheLevel::kIo);
}

TEST(KarmaTest, BoundariesExclusive) {
  const KarmaAllocator karma({{0, 5, 10, 1.0}}, 100, 100);
  EXPECT_EQ(karma.level_of({0, 4}), CacheLevel::kUncached);
  EXPECT_EQ(karma.level_of({0, 5}), CacheLevel::kIo);
  EXPECT_EQ(karma.level_of({0, 9}), CacheLevel::kIo);
  EXPECT_EQ(karma.level_of({0, 10}), CacheLevel::kUncached);
}

TEST(KarmaTest, InvertedRangeRejected) {
  EXPECT_THROW(KarmaAllocator({{0, 10, 5, 1.0}}, 10, 10),
               std::invalid_argument);
}

TEST(KarmaTest, DeterministicTieBreak) {
  std::vector<RangeHint> hints = {
      {1, 0, 5, 2.0},
      {0, 0, 5, 2.0},
  };
  const KarmaAllocator karma(hints, 5, 5);
  // Equal densities: file 0 wins the I/O layer.
  EXPECT_EQ(karma.level_of({0, 0}), CacheLevel::kIo);
  EXPECT_EQ(karma.level_of({1, 0}), CacheLevel::kStorage);
}

/// KarmaAllocator's answer written plainly: each hint's level by the same
/// greedy pass, then the last range of the block's file (sorted by begin)
/// beginning at or before the block, found by std::upper_bound over all of
/// the file's ranges.
class ReferenceKarma {
 public:
  ReferenceKarma(std::vector<RangeHint> hints, std::uint64_t io_left,
                 std::uint64_t storage_left) {
    std::stable_sort(hints.begin(), hints.end(),
                     [](const RangeHint& a, const RangeHint& b) {
                       if (a.accesses_per_block != b.accesses_per_block) {
                         return a.accesses_per_block > b.accesses_per_block;
                       }
                       if (a.file != b.file) return a.file < b.file;
                       return a.begin_block < b.begin_block;
                     });
    for (const RangeHint& h : hints) {
      if (h.size() == 0) continue;
      CacheLevel level = CacheLevel::kUncached;
      if (h.size() <= io_left) {
        level = CacheLevel::kIo;
        io_left -= h.size();
      } else if (h.size() <= storage_left) {
        level = CacheLevel::kStorage;
        storage_left -= h.size();
      }
      ranges_[h.file].push_back({h.begin_block, h.end_block, level});
    }
    for (auto& [file, ranges] : ranges_) {
      std::sort(ranges.begin(), ranges.end(),
                [](const Range& a, const Range& b) {
                  return a.begin < b.begin;
                });
    }
  }

  CacheLevel level_of(BlockKey key) const {
    const auto file = ranges_.find(key.file);
    if (file == ranges_.end()) return CacheLevel::kUncached;
    const std::vector<Range>& ranges = file->second;
    auto it = std::upper_bound(
        ranges.begin(), ranges.end(), key.block,
        [](std::uint64_t block, const Range& r) { return block < r.begin; });
    if (it == ranges.begin()) return CacheLevel::kUncached;
    --it;
    return key.block < it->end ? it->level : CacheLevel::kUncached;
  }

 private:
  struct Range {
    std::uint64_t begin;
    std::uint64_t end;
    CacheLevel level;
  };
  std::map<FileId, std::vector<Range>> ranges_;
};

TEST(KarmaTest, LevelOfMatchesAFullBinarySearch) {
  // Random hint sets over files 0..3 with some files left unhinted, laid
  // out with gaps, adjacent, or overlapping with distinct begins, starting
  // at 0, anywhere, or just below 2^40; probed at every range boundary
  // +-1 and at random blocks.
  util::Rng rng(25);
  const std::uint64_t top = std::uint64_t{1} << 40;
  std::size_t probes = 0;
  for (int trial = 0; trial < 400; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    std::vector<RangeHint> hints;
    for (FileId file = 0; file < 4; ++file) {
      if (rng.next_below(3) == 0) continue;  // unhinted file
      const std::uint64_t count = rng.next_below(40);
      const std::uint64_t layout = rng.next_below(3);  // gap, adjacent, overlap
      std::uint64_t begin = 0;
      switch (rng.next_below(3)) {
        case 0:
          break;
        case 1:
          begin = rng.next_below(top / 2);
          break;
        default:  // the whole file stays below 2^40
          begin = top - 1 - count * 5100 - rng.next_below(1000);
          break;
      }
      for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint64_t size = rng.next_below(20);  // empty ones too
        hints.push_back({file, begin, begin + size,
                         static_cast<double>(rng.next_below(4))});
        if (layout == 0) {
          begin += size + 1 + rng.next_below(rng.next_below(2) == 0 ? 5 : 5000);
        } else if (layout == 1) {
          begin += std::max<std::uint64_t>(size, 1);
        } else {
          begin += 1 + rng.next_below(std::max<std::uint64_t>(size, 1));
        }
      }
    }
    const std::uint64_t io = rng.next_below(200);
    const std::uint64_t storage = rng.next_below(400);
    const KarmaAllocator karma(hints, io, storage);
    const ReferenceKarma reference(hints, io, storage);
    std::vector<BlockKey> keys;
    for (const RangeHint& h : hints) {
      for (const std::uint64_t edge : {h.begin_block, h.end_block}) {
        for (std::uint64_t block = edge == 0 ? 0 : edge - 1; block <= edge + 1;
             ++block) {
          keys.push_back({h.file, block});
        }
      }
    }
    for (int i = 0; i < 64; ++i) {
      keys.push_back({static_cast<FileId>(rng.next_below(6)),
                      rng.next_below(2) == 0 ? rng.next_below(20000)
                                             : rng.next_below(top)});
    }
    keys.push_back({0, 0});
    keys.push_back({0, top - 1});
    for (const BlockKey key : keys) {
      ASSERT_EQ(karma.level_of(key), reference.level_of(key))
          << "file " << key.file << " block " << key.block;
      ++probes;
    }
  }
  EXPECT_GT(probes, 10000u);
}

TEST(KarmaTest, EmptyHints) {
  const KarmaAllocator karma({}, 10, 10);
  EXPECT_EQ(karma.level_of({0, 0}), CacheLevel::kUncached);
}

}  // namespace
}  // namespace flo::storage
