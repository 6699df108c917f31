// Loop parallelization and distribution (Section 3 of the paper).
//
// The iteration space of a nest is evenly partitioned into iteration blocks
// by parallel hyperplanes orthogonal to dimension u (the parallel loop), and
// the blocks are assigned to threads round-robin in block order. The last
// block may be smaller when the trip count does not divide evenly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "polyhedral/iteration_space.hpp"

namespace flo::parallel {

using ThreadId = std::uint32_t;

/// One iteration block: a contiguous sub-range of the parallel dimension.
struct IterationBlock {
  std::int64_t lower = 0;  ///< inclusive, along the parallel dimension
  std::int64_t upper = 0;  ///< inclusive
  ThreadId thread = 0;     ///< owner under round-robin distribution

  std::int64_t size() const { return upper - lower + 1; }
};

/// A decomposition's blocks seen through v = scale * iu + offset, scale >
/// 0 (BlockDecomposition::scaled): block(v) is block_of(floor((v - offset)
/// / scale)), found without a division, and interval(b) is the v-range
/// block b owns, the first reaching down and the last up as block_of
/// clamps. The blocks between own v-intervals of one width w, scale times
/// the block span, so a table over them in buckets of the largest power of
/// two not above w holds the block of each bucket's first v, and v lies in
/// that block or the next.
class ScaledBlocks {
 public:
  struct Interval {
    std::int64_t lo;
    std::int64_t hi;
  };

  ScaledBlocks() = default;

  std::size_t block(std::int64_t v) const {
    if (owns_.size() == 1 || v < edge_lo_) return 0;
    if (v >= edge_hi_) return owns_.size() - 1;
    const std::size_t b = first_[(static_cast<std::uint64_t>(v) -
                                  static_cast<std::uint64_t>(edge_lo_)) >>
                                 shift_];
    return v > owns_[b].hi ? b + 1 : b;
  }

  const Interval& interval(std::size_t block) const { return owns_[block]; }

 private:
  friend class BlockDecomposition;

  std::vector<Interval> owns_;
  std::vector<std::size_t> first_;  ///< block of each bucket's first v
  std::int64_t edge_lo_ = 0;        ///< block 1's first v
  std::int64_t edge_hi_ = 0;        ///< the last block's first v
  int shift_ = 0;                   ///< log2 of the bucket width
};

/// The block decomposition of one nest.
class BlockDecomposition {
 public:
  BlockDecomposition() = default;

  /// Partitions `space` along `parallel_dim` into `block_count` equal blocks
  /// (last one possibly smaller) distributed round-robin over
  /// `thread_count` threads. `block_count` == 0 means one block per thread.
  BlockDecomposition(const poly::IterationSpace& space,
                     std::size_t parallel_dim, std::size_t thread_count,
                     std::size_t block_count = 0);

  const std::vector<IterationBlock>& blocks() const { return blocks_; }
  std::size_t block_count() const { return blocks_.size(); }
  std::size_t thread_count() const { return thread_count_; }
  std::size_t parallel_dim() const { return parallel_dim_; }

  /// Blocks owned by `thread`, in execution order.
  std::vector<IterationBlock> blocks_of(ThreadId thread) const;

  /// The block index that contains parallel-dimension value `iu`.
  /// Values outside the loop range are clamped into it.
  std::size_t block_of(std::int64_t iu) const;

  /// Owning thread of parallel-dimension value `iu`.
  ThreadId thread_of(std::int64_t iu) const;

  /// block_of through v = scale * iu + offset (scale > 0), for a caller
  /// that looks blocks up by v: see ScaledBlocks. Throws
  /// std::overflow_error if a block boundary in v does not fit.
  ScaledBlocks scaled(std::int64_t scale, std::int64_t offset) const;

  /// Overrides the block -> thread assignment (used by the computation
  /// mapping baseline [26], which re-clusters blocks onto threads).
  /// `assignment[b]` is the new owner of block b.
  void reassign(const std::vector<ThreadId>& assignment);

  std::string to_string() const;

 private:
  std::vector<IterationBlock> blocks_;
  std::size_t thread_count_ = 0;
  std::size_t parallel_dim_ = 0;
  std::int64_t dim_lower_ = 0;
  std::int64_t block_span_ = 1;  ///< nominal iterations per block
};

}  // namespace flo::parallel
