#include "storage/lru_cache.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace flo::storage {

LruCache::LruCache(std::size_t capacity_blocks) {
  if (capacity_blocks == 0) {
    throw std::invalid_argument("LruCache: zero capacity");
  }
  if (capacity_blocks >= kNil) {
    throw std::invalid_argument("LruCache: capacity beyond 32-bit slab");
  }
  allocate(capacity_blocks);
}

void LruCache::allocate(std::size_t capacity_blocks) {
  capacity_ = capacity_blocks;
  entries_.reserve(capacity_);
  const std::size_t buckets =
      std::bit_ceil(std::max<std::size_t>(2, 2 * capacity_));
  table_.assign(buckets, kNil);
  mask_ = buckets - 1;
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(buckets));
  parts_.assign(1, Partition{});
  parts_[0].quota = capacity_;
}

void LruCache::table_insert(std::uint32_t entry) {
  std::size_t i = home(entries_[entry].key);
  while (table_[i] != kNil) i = (i + 1) & mask_;
  table_[i] = entry;
}

void LruCache::table_erase(std::uint64_t key) {
  // The key is resident, so its probe run has no empty bucket before it.
  std::size_t i = home(key);
  while (entries_[table_[i]].key != key) i = (i + 1) & mask_;
  // Backward shift: pull each later bucket of the probe run into the hole
  // unless its home lies cyclically in (hole, bucket], where it would no
  // longer be reachable — no tombstones, so probe runs never degrade.
  for (std::size_t j = (i + 1) & mask_; table_[j] != kNil;
       j = (j + 1) & mask_) {
    if (((j - home(entries_[table_[j]].key)) & mask_) >= ((j - i) & mask_)) {
      table_[i] = table_[j];
      i = j;
    }
  }
  table_[i] = kNil;
}

void LruCache::link_front(std::uint32_t e) {
  Entry& x = entries_[e];
  Partition& p = parts_[x.owner];
  x.prev = kNil;
  x.next = p.head;
  if (p.head != kNil) {
    entries_[p.head].prev = e;
  } else {
    p.tail = e;
  }
  p.head = e;
  ++p.size;
}

void LruCache::unlink(std::uint32_t e) {
  const Entry& x = entries_[e];
  Partition& p = parts_[x.owner];
  if (x.prev != kNil) {
    entries_[x.prev].next = x.next;
  } else {
    p.head = x.next;
  }
  if (x.next != kNil) {
    entries_[x.next].prev = x.prev;
  } else {
    p.tail = x.prev;
  }
  --p.size;
}

void LruCache::promote(std::uint32_t e) {
  if (parts_[entries_[e].owner].head == e) return;
  unlink(e);
  link_front(e);
}

std::uint32_t LruCache::evict_tail(std::uint32_t p) {
  const std::uint32_t e = parts_[p].tail;
  unlink(e);
  table_erase(entries_[e].key);
  --size_;
  return e;
}

bool LruCache::touch(BlockKey key) {
  const std::uint32_t e = find(key.packed());
  if (e == kNil) return false;
  promote(e);
  return true;
}

std::uint32_t LruCache::touch_run(BlockKey key, std::uint32_t max_blocks) {
  const std::uint64_t base = key.packed();
  std::uint32_t n = 0;
  for (; n < max_blocks; ++n) {
    const std::uint32_t e = find(base + n);
    if (e == kNil) break;
    promote(e);
  }
  return n;
}

std::optional<BlockKey> LruCache::insert(BlockKey key, std::uint32_t owner) {
  if (!partitioned_) {
    owner = 0;
  } else if (owner >= parts_.size()) {
    throw std::invalid_argument("LruCache: owner beyond partition count");
  }
  const std::uint64_t packed = key.packed();
  std::uint32_t e = find(packed);
  if (e != kNil) {
    // Resident (possibly in another tenant's partition): promote where it
    // lives; ownership — and the quota charge — stay put.
    promote(e);
    return std::nullopt;
  }
  std::optional<BlockKey> victim;
  const Partition& part = parts_[owner];
  if (part.size >= part.quota) {
    if (part.tail == kNil) return key;  // zero-capacity cache: nothing fits
    // Full: the owner's own LRU block makes room, and its entry is reused.
    e = evict_tail(owner);
    victim = BlockKey::unpack(entries_[e].key);
  } else if (free_ != kNil) {
    e = free_;
    free_ = entries_[e].next;
  } else {
    // Quotas sum to at most the capacity, so a partition under quota
    // always finds room in the reserved slab.
    e = static_cast<std::uint32_t>(entries_.size());
    entries_.emplace_back();
  }
  entries_[e].key = packed;
  entries_[e].owner = owner;
  link_front(e);
  table_insert(e);
  ++size_;
  return victim;
}

bool LruCache::erase(BlockKey key) {
  const std::uint64_t packed = key.packed();
  const std::uint32_t e = find(packed);
  if (e == kNil) return false;
  unlink(e);
  table_erase(packed);
  entries_[e].next = free_;
  free_ = e;
  --size_;
  return true;
}

std::optional<BlockKey> LruCache::lru_key() const {
  // No global recency order exists across partitions; only the degenerate
  // single-occupied-partition case has a well-defined LRU.
  const Partition* occupied = nullptr;
  for (const Partition& p : parts_) {
    if (p.size == 0) continue;
    if (occupied != nullptr) return std::nullopt;
    occupied = &p;
  }
  if (occupied == nullptr) return std::nullopt;
  return BlockKey::unpack(entries_[occupied->tail].key);
}

void LruCache::clear() {
  std::fill(table_.begin(), table_.end(), kNil);
  entries_.clear();
  free_ = kNil;
  size_ = 0;
  for (Partition& p : parts_) {
    p.head = kNil;
    p.tail = kNil;
    p.size = 0;
  }
}

void LruCache::set_partitions(std::vector<std::size_t> quotas) {
  std::size_t total = 0;
  for (std::size_t quota : quotas) {
    if (quota == 0) {
      throw std::invalid_argument("LruCache: zero partition quota");
    }
    if (quota > capacity_ - total) {
      throw std::invalid_argument(
          "LruCache: partition quotas exceed capacity");
    }
    total += quota;
  }
  clear();
  partitioned_ = !quotas.empty();
  parts_.assign(partitioned_ ? quotas.size() : 1, Partition{});
  for (std::size_t i = 0; i < parts_.size(); ++i) {
    parts_[i].quota = partitioned_ ? quotas[i] : capacity_;
  }
}

std::size_t LruCache::partition_quota(std::uint32_t tenant) const {
  return partitioned_ && tenant < parts_.size() ? parts_[tenant].quota : 0;
}

std::size_t LruCache::partition_occupancy(std::uint32_t tenant) const {
  return partitioned_ && tenant < parts_.size() ? parts_[tenant].size : 0;
}

std::optional<std::uint32_t> LruCache::owner_of(BlockKey key) const {
  if (!partitioned_) return std::nullopt;
  const std::uint32_t e = find(key.packed());
  if (e == kNil) return std::nullopt;
  return entries_[e].owner;
}

std::vector<BlockKey> LruCache::set_partition_quota(std::uint32_t tenant,
                                                    std::size_t quota) {
  if (!partitioned_ || tenant >= parts_.size()) {
    throw std::invalid_argument("LruCache: quota for unknown partition");
  }
  if (quota == 0) {
    throw std::invalid_argument("LruCache: zero partition quota");
  }
  Partition& part = parts_[tenant];
  if (quota > part.quota) {
    std::size_t total = 0;
    for (const Partition& p : parts_) total += p.quota;
    if (quota - part.quota > capacity_ - total) {
      throw std::invalid_argument(
          "LruCache: partition quotas exceed capacity");
    }
  }
  part.quota = quota;
  std::vector<BlockKey> victims;
  while (part.size > quota) {
    const std::uint32_t e = evict_tail(tenant);
    victims.push_back(BlockKey::unpack(entries_[e].key));
    entries_[e].next = free_;
    free_ = e;
  }
  return victims;
}

}  // namespace flo::storage
