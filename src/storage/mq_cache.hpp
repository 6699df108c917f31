// MQ — the Multi-Queue replacement algorithm for second-level buffer
// caches (Zhou, Philbin, Li; USENIX ATC 2001 — reference [50] of the
// paper). The paper's related work singles it out as the classic answer to
// "LRU is not suitable for managing storage cache": second-level accesses
// have long, frequency-skewed reuse distances, so MQ keeps m LRU queues by
// access-frequency class plus a history (ghost) queue of evicted metadata.
//
// Implemented here with the standard simplifications: m queues where a
// block with reference count f sits in queue floor(log2(f)) (capped), a
// per-block expiry of `life_time` logical accesses demoting idle blocks
// one queue down, and a ghost queue of 2x capacity remembering reference
// counts of evicted blocks.
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>
#include <vector>

#include "storage/lru_cache.hpp"

namespace flo::storage {

class MqCache {
 public:
  MqCache() = default;

  /// `queues` frequency classes; `life_time` in logical accesses (0 picks
  /// a capacity-derived default, the common heuristic).
  explicit MqCache(std::size_t capacity_blocks, std::size_t queues = 8,
                   std::uint64_t life_time = 0);

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const {
    return parts_.empty() ? map_.size() : owner_.size();
  }

  bool contains(BlockKey key) const;

  /// Resident-block reference: bumps the frequency, requeues, returns true.
  /// When partitioned, a miss still advances a logical clock — the
  /// `requester` tenant's, since its reference stream is what ages its own
  /// blocks (hits advance the owning partition's clock).
  bool touch(BlockKey key, std::uint32_t requester = 0);

  /// References blocks key, key+1, ..., stopping at the first non-resident
  /// block or after max_blocks; returns the number touched. Equivalent to
  /// that many successive touch() calls (each advances the logical clock
  /// and runs expiry adjustment), so extent-path results match per-block.
  std::uint32_t touch_run(BlockKey key, std::uint32_t max_blocks,
                          std::uint32_t requester = 0);

  /// Inserts a missing block (ghost-queue frequency restored if present);
  /// returns the evicted block if capacity was exceeded. When partitioned
  /// the block is charged to `owner`'s quota and any victim comes from
  /// that tenant's own partition (DESIGN.md §4k).
  std::optional<BlockKey> insert(BlockKey key, std::uint32_t owner = 0);

  bool erase(BlockKey key);
  void clear();

  /// Queue index a resident block currently sits in (for tests).
  std::optional<std::size_t> queue_of(BlockKey key) const;

  /// --- per-tenant partitioning (DESIGN.md §4k) --------------------------
  /// Carves the cache into one independent MQ instance per tenant with
  /// the given block quotas (each non-zero, sum <= capacity; a bad vector
  /// throws before any state changes; ghost memory and expiry clocks are
  /// per tenant). Clears all residency. An empty vector
  /// returns to the unpartitioned cache. A single partition at full
  /// capacity behaves bit-identically to the unpartitioned cache.
  void set_partitions(std::vector<std::size_t> quotas);
  bool partitioned() const { return !parts_.empty(); }
  std::size_t partition_quota(std::uint32_t tenant) const;
  std::size_t partition_occupancy(std::uint32_t tenant) const;
  std::optional<std::uint32_t> owner_of(BlockKey key) const;
  /// Shrinks one partition's quota, evicting per MQ policy until it fits;
  /// returns the victims. Growing never evicts.
  std::vector<BlockKey> set_partition_quota(std::uint32_t tenant,
                                            std::size_t quota);

 private:
  struct Entry {
    std::uint64_t freq = 0;
    std::uint64_t expire = 0;
    std::size_t queue = 0;
    std::list<std::uint64_t>::iterator pos;
  };

  std::size_t queue_for(std::uint64_t freq) const;
  void enqueue(std::uint64_t packed, Entry& entry);
  void adjust();  ///< demote expired queue heads
  /// Evicts the LRU block of the lowest non-empty queue into the ghost
  /// queue; nullopt when empty.
  std::optional<BlockKey> evict_one();

  std::size_t capacity_ = 0;
  std::size_t queue_count_ = 8;
  std::uint64_t life_time_ = 0;
  std::uint64_t life_time_param_ = 0;  ///< as passed (0 = derive), for parts
  std::uint64_t now_ = 0;

  std::vector<std::list<std::uint64_t>> queues_;  // LRU at front? back: MRU
  std::unordered_map<std::uint64_t, Entry> map_;

  // Ghost queue: frequency memory of evicted blocks (FIFO, 2x capacity).
  std::list<std::uint64_t> ghost_order_;
  std::unordered_map<std::uint64_t, std::uint64_t> ghost_freq_;

  // Partitioned mode: one independent MQ per tenant plus an owner index;
  // the flat state above stays empty while partitioned (and vice versa).
  std::vector<MqCache> parts_;
  std::unordered_map<std::uint64_t, std::uint32_t> owner_;
};

}  // namespace flo::storage
