// KARMA-style hint-driven exclusive placement (Yadgar et al., FAST'07 [47]).
//
// KARMA classifies all cached blocks into disjoint sets using application
// hints and partitions the cache hierarchy accordingly, placing each set at
// exactly one level by marginal gain. We reproduce that structure: hints are
// file ranges with an expected access density; ranges are sorted by density
// and greedily assigned to the I/O layer until its aggregate capacity is
// filled, then to the storage layer, and the remainder is uncached. The
// paper's observation that "more localized data accesses enable KARMA to
// generate more accurate hints" falls out naturally: an optimized layout
// concentrates accesses into few dense ranges that fit the upper level.
#pragma once

#include <cstdint>
#include <vector>

#include "storage/lru_cache.hpp"
#include "storage/topology.hpp"

namespace flo::storage {

/// One application hint: a file range and its expected access density.
struct RangeHint {
  FileId file = 0;
  std::uint64_t begin_block = 0;  ///< inclusive
  std::uint64_t end_block = 0;    ///< exclusive
  double accesses_per_block = 0;

  std::uint64_t size() const { return end_block - begin_block; }
};

/// Which layer a block's range class is pinned to.
enum class CacheLevel : std::uint8_t { kIo = 0, kStorage = 1, kUncached = 2 };

class KarmaAllocator {
 public:
  KarmaAllocator() = default;

  /// Partitions hinted ranges over the two cache layers by marginal gain.
  /// Capacities are aggregate blocks across all caches of a layer.
  KarmaAllocator(std::vector<RangeHint> hints,
                 std::uint64_t io_capacity_blocks,
                 std::uint64_t storage_capacity_blocks);

  /// Level assigned to the range containing `key`; kUncached when no hint
  /// covers the block.
  CacheLevel level_of(BlockKey key) const;

  /// Number of ranges pinned at each level (diagnostics).
  std::size_t ranges_at(CacheLevel level) const;

 private:
  struct Assigned {
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    CacheLevel level = CacheLevel::kUncached;
  };
  /// One file's ranges sorted by begin, with a bucket index over the
  /// begins so a lookup searches one bucket's ranges instead of all of
  /// them. Bucket b covers blocks base + [b, b + 1) * 2^shift, and there
  /// are at most two buckets per range; first[b] is the index of the first
  /// range beginning in or after bucket b, and first.back() is the range
  /// count.
  struct FileRanges {
    std::vector<Assigned> ranges;
    std::vector<std::size_t> first;
    std::uint64_t base = 0;  ///< the first range's begin
    unsigned shift = 0;
  };
  std::vector<FileRanges> per_file_;
  std::size_t counts_[3] = {0, 0, 0};
};

}  // namespace flo::storage
