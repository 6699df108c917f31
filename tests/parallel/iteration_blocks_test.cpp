#include "parallel/iteration_blocks.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace flo::parallel {
namespace {

poly::IterationSpace space2d(std::int64_t n) {
  return poly::IterationSpace({{0, n - 1}, {0, n - 1}});
}

TEST(BlockDecompositionTest, OneBlockPerThreadByDefault) {
  BlockDecomposition d(space2d(64), 0, 4);
  ASSERT_EQ(d.block_count(), 4u);
  EXPECT_EQ(d.blocks()[0].lower, 0);
  EXPECT_EQ(d.blocks()[0].upper, 15);
  EXPECT_EQ(d.blocks()[3].lower, 48);
  EXPECT_EQ(d.blocks()[3].upper, 63);
  for (std::size_t b = 0; b < 4; ++b) {
    EXPECT_EQ(d.blocks()[b].thread, b);
  }
}

TEST(BlockDecompositionTest, RoundRobinAssignment) {
  BlockDecomposition d(space2d(64), 0, 2, /*block_count=*/4);
  ASSERT_EQ(d.block_count(), 4u);
  EXPECT_EQ(d.blocks()[0].thread, 0u);
  EXPECT_EQ(d.blocks()[1].thread, 1u);
  EXPECT_EQ(d.blocks()[2].thread, 0u);
  EXPECT_EQ(d.blocks()[3].thread, 1u);
}

TEST(BlockDecompositionTest, UnevenLastBlockSmaller) {
  // 10 iterations over 4 blocks: spans 3,3,3,1 (the paper's "last block may
  // have a smaller number of iterations").
  BlockDecomposition d(poly::IterationSpace({{0, 9}}), 0, 4);
  ASSERT_EQ(d.block_count(), 4u);
  EXPECT_EQ(d.blocks()[0].size(), 3);
  EXPECT_EQ(d.blocks()[3].size(), 1);
}

TEST(BlockDecompositionTest, MoreThreadsThanIterations) {
  BlockDecomposition d(poly::IterationSpace({{0, 2}}), 0, 8);
  EXPECT_EQ(d.block_count(), 3u);  // never more blocks than iterations
}

TEST(BlockDecompositionTest, BlockOfAndThreadOf) {
  BlockDecomposition d(space2d(64), 0, 4);
  EXPECT_EQ(d.block_of(0), 0u);
  EXPECT_EQ(d.block_of(15), 0u);
  EXPECT_EQ(d.block_of(16), 1u);
  EXPECT_EQ(d.thread_of(63), 3u);
  // Out-of-range values clamp.
  EXPECT_EQ(d.block_of(-5), 0u);
  EXPECT_EQ(d.block_of(1000), 3u);
}

TEST(BlockDecompositionTest, BlocksOfThread) {
  BlockDecomposition d(space2d(64), 0, 2, 6);
  const auto mine = d.blocks_of(0);
  ASSERT_EQ(mine.size(), 3u);
  for (const auto& block : mine) {
    EXPECT_EQ(block.thread, 0u);
  }
  // Blocks in execution order.
  EXPECT_LT(mine[0].lower, mine[1].lower);
}

TEST(BlockDecompositionTest, ParallelDimSelectsLoop) {
  BlockDecomposition d(space2d(8), 1, 4);
  EXPECT_EQ(d.parallel_dim(), 1u);
  EXPECT_EQ(d.block_count(), 4u);
  EXPECT_EQ(d.blocks()[0].size(), 2);
}

TEST(BlockDecompositionTest, Reassign) {
  BlockDecomposition d(space2d(64), 0, 4);
  d.reassign({3, 2, 1, 0});
  EXPECT_EQ(d.blocks()[0].thread, 3u);
  EXPECT_EQ(d.thread_of(0), 3u);
  EXPECT_THROW(d.reassign({0, 1}), std::invalid_argument);
  EXPECT_THROW(d.reassign({9, 9, 9, 9}), std::invalid_argument);
}

TEST(BlockDecompositionTest, InvalidArguments) {
  EXPECT_THROW(BlockDecomposition(space2d(8), 0, 0), std::invalid_argument);
  EXPECT_THROW(BlockDecomposition(space2d(8), 2, 4), std::invalid_argument);
}

TEST(BlockDecompositionTest, CoverageIsExact) {
  // Every iteration belongs to exactly one block; blocks are contiguous.
  BlockDecomposition d(poly::IterationSpace({{5, 77}}), 0, 7);
  std::int64_t expected = 5;
  for (const auto& block : d.blocks()) {
    EXPECT_EQ(block.lower, expected);
    expected = block.upper + 1;
  }
  EXPECT_EQ(expected, 78);
}

TEST(BlockDecompositionTest, ScaledBlocksMatchBlockOf) {
  // block(v) is block_of(floor((v - offset) / scale)) for every v, and
  // interval(b) is exactly the v that block(v) maps to b.
  const auto floor_div = [](std::int64_t a, std::int64_t b) {
    std::int64_t q = a / b;
    if (a % b != 0 && a < 0) --q;
    return q;
  };
  const poly::IterationSpace spaces[] = {
      poly::IterationSpace({{0, 0}}), poly::IterationSpace({{5, 77}}),
      poly::IterationSpace({{-9, 40}}), poly::IterationSpace({{0, 63}})};
  for (const auto& space : spaces) {
    for (const std::size_t threads : {1u, 2u, 3u, 7u, 16u}) {
      for (const std::size_t blocks : {0u, 5u, 13u}) {
        const BlockDecomposition d(space, 0, threads, blocks);
        for (const std::int64_t scale : {1, 2, 3, 8, 37}) {
          for (const std::int64_t offset : {-11, 0, 6}) {
            const ScaledBlocks by_v = d.scaled(scale, offset);
            const std::int64_t lo = scale * (space.bound(0).lower - 3) + offset;
            const std::int64_t hi = scale * (space.bound(0).upper + 3) + offset;
            for (std::int64_t v = lo; v <= hi; ++v) {
              const std::size_t b = by_v.block(v);
              ASSERT_EQ(b, d.block_of(floor_div(v - offset, scale)))
                  << d.to_string() << " scale " << scale << " offset "
                  << offset << " v " << v;
              ASSERT_GE(v, by_v.interval(b).lo);
              ASSERT_LE(v, by_v.interval(b).hi);
            }
          }
        }
      }
    }
  }
  EXPECT_THROW((void)BlockDecomposition(space2d(8), 0, 2).scaled(0, 0),
               std::invalid_argument);
  EXPECT_THROW((void)BlockDecomposition(space2d(8), 0, 2)
                   .scaled(std::numeric_limits<std::int64_t>::max(), 0),
               std::overflow_error);
}

}  // namespace
}  // namespace flo::parallel
