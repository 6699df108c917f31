// Block-granularity LRU cache — the building block for every cache in the
// hierarchy (Section 5.1: "managed using the LRU policy").
//
// Flat layout: one slab of {key, prev, next, owner} entries, reserved at
// construction and never reallocated, threaded by index into one recency
// list per partition (an unpartitioned cache is the one-partition case),
// and an open-addressing key -> entry table (power-of-two size of at least
// twice the capacity, multiplicative hash of the packed key, linear
// probing, backward-shift deletion). A hit is one probe plus an index
// splice and a miss reuses the victim's entry, so touches, inserts and
// erases never allocate.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "storage/topology.hpp"

namespace flo::storage {

/// Identity of a cached unit: (file, block index within file).
struct BlockKey {
  FileId file = 0;
  std::uint64_t block = 0;

  bool operator==(const BlockKey&) const = default;

  /// Packs into one 64-bit word (file ids are small; blocks < 2^40).
  std::uint64_t packed() const {
    return (static_cast<std::uint64_t>(file) << 40) | block;
  }
  static BlockKey unpack(std::uint64_t packed) {
    return {static_cast<FileId>(packed >> 40),
            packed & ((1ull << 40) - 1)};
  }
};

/// Fixed-capacity LRU over BlockKeys. O(1) expected lookup/insert/erase.
class LruCache {
 public:
  LruCache() { allocate(0); }
  explicit LruCache(std::size_t capacity_blocks);

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return size_; }

  /// True iff resident (does NOT update recency).
  bool contains(BlockKey key) const { return find(key.packed()) != kNil; }

  /// If resident, promotes to MRU and returns true.
  bool touch(BlockKey key);

  /// Promotes blocks key, key+1, ..., key+n-1 to MRU exactly as n
  /// successive touch() calls would (final recency order: key+n-1 most
  /// recent), stopping at the first non-resident block; returns the number
  /// promoted. One call services a whole sequential extent: the dispatch,
  /// scheduler, and cursor overheads of the per-block path are paid once
  /// per extent instead of once per block.
  std::uint32_t touch_run(BlockKey key, std::uint32_t max_blocks);

  /// Inserts at MRU; returns the evicted key if capacity was exceeded.
  /// Inserting a resident key just promotes it (returns nullopt). When
  /// partitioned, `owner` names the tenant whose quota the block is
  /// charged to — the victim (if any) always comes from that tenant's own
  /// partition, which is the isolation guarantee (DESIGN.md §4k).
  std::optional<BlockKey> insert(BlockKey key, std::uint32_t owner = 0);

  /// Removes a key if resident; returns whether it was resident.
  bool erase(BlockKey key);

  /// Least-recently-used resident key, if any (for inspection/tests;
  /// partitioned caches have no global recency order and answer nullopt
  /// unless exactly one partition is non-empty).
  std::optional<BlockKey> lru_key() const;

  void clear();

  /// --- per-tenant partitioning (DESIGN.md §4k) --------------------------
  /// Carves the cache into one LRU partition per tenant with the given
  /// block quotas (each non-zero, their sum at most the capacity; a bad
  /// vector throws before any state changes). Clears all residency. An
  /// empty vector returns to the unpartitioned global LRU. A single
  /// partition at full capacity behaves bit-identically to the
  /// unpartitioned cache — the qos-neutrality oracle pins this.
  void set_partitions(std::vector<std::size_t> quotas);
  bool partitioned() const { return partitioned_; }
  std::size_t partition_count() const {
    return partitioned_ ? parts_.size() : 0;
  }
  std::size_t partition_quota(std::uint32_t tenant) const;
  std::size_t partition_occupancy(std::uint32_t tenant) const;
  /// The tenant currently charged for a resident block, if partitioned.
  std::optional<std::uint32_t> owner_of(BlockKey key) const;
  /// Resizes one partition's quota. Shrinking evicts its LRU blocks until
  /// it fits and returns the victims (the dynamic-share rebalancer
  /// accounts them through the same paths as insert victims); growing
  /// never evicts, and throws if the quota sum would exceed the capacity.
  std::vector<BlockKey> set_partition_quota(std::uint32_t tenant,
                                            std::size_t quota);

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  struct Entry {
    std::uint64_t key = 0;
    std::uint32_t prev = kNil;  ///< toward MRU
    std::uint32_t next = kNil;  ///< toward LRU; free-list link when free
    std::uint32_t owner = 0;    ///< partition the entry is charged to
  };
  struct Partition {
    std::uint32_t head = kNil;  ///< MRU
    std::uint32_t tail = kNil;  ///< LRU
    std::size_t size = 0;
    std::size_t quota = 0;
  };

  void allocate(std::size_t capacity_blocks);
  std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }
  /// Entry index of a resident key, or kNil.
  std::uint32_t find(std::uint64_t key) const {
    for (std::size_t i = home(key);; i = (i + 1) & mask_) {
      const std::uint32_t e = table_[i];
      if (e == kNil || entries_[e].key == key) return e;
    }
  }
  void table_insert(std::uint32_t entry);
  void table_erase(std::uint64_t key);
  void link_front(std::uint32_t e);
  void unlink(std::uint32_t e);
  void promote(std::uint32_t e);
  /// Drops partition `p`'s LRU entry from the table and its list and
  /// returns its index (still holding the victim's key).
  std::uint32_t evict_tail(std::uint32_t p);

  std::size_t capacity_ = 0;
  std::size_t size_ = 0;
  std::vector<Entry> entries_;  ///< slab, reserved to capacity_
  std::uint32_t free_ = kNil;   ///< erased entries, linked through next
  std::vector<std::uint32_t> table_;  ///< entry index; kNil = empty
  std::size_t mask_ = 0;
  unsigned shift_ = 63;
  std::vector<Partition> parts_;  ///< one element when unpartitioned
  bool partitioned_ = false;
};

}  // namespace flo::storage
