#include "storage/mq_cache.hpp"

#include <bit>
#include <stdexcept>

namespace flo::storage {

MqCache::MqCache(std::size_t capacity_blocks, std::size_t queues,
                 std::uint64_t life_time)
    : capacity_(capacity_blocks),
      queue_count_(queues),
      life_time_(life_time),
      life_time_param_(life_time) {
  if (capacity_ == 0) throw std::invalid_argument("MqCache: zero capacity");
  if (queue_count_ == 0) throw std::invalid_argument("MqCache: zero queues");
  if (life_time_ == 0) {
    // The customary heuristic: roughly the time to cycle the cache twice.
    life_time_ = 2 * static_cast<std::uint64_t>(capacity_);
  }
  queues_.resize(queue_count_);
  map_.reserve(capacity_ * 2);
}

std::size_t MqCache::queue_for(std::uint64_t freq) const {
  if (freq <= 1) return 0;
  const std::size_t q = std::bit_width(freq) - 1;  // floor(log2(freq))
  return std::min(q, queue_count_ - 1);
}

void MqCache::enqueue(std::uint64_t packed, Entry& entry) {
  entry.queue = queue_for(entry.freq);
  auto& q = queues_[entry.queue];
  q.push_back(packed);  // back == MRU
  entry.pos = std::prev(q.end());
  entry.expire = now_ + life_time_;
}

void MqCache::adjust() {
  // Demote the head (LRU end) of each non-bottom queue when it expires.
  for (std::size_t qi = queue_count_; qi-- > 1;) {
    auto& q = queues_[qi];
    if (q.empty()) continue;
    const std::uint64_t head = q.front();
    Entry& entry = map_.at(head);
    if (entry.expire < now_) {
      q.pop_front();
      entry.queue = qi - 1;
      auto& below = queues_[qi - 1];
      below.push_back(head);
      entry.pos = std::prev(below.end());
      entry.expire = now_ + life_time_;
    }
  }
}

std::optional<BlockKey> MqCache::evict_one() {
  // Evict the LRU block of the lowest non-empty queue.
  for (auto& q : queues_) {
    if (q.empty()) continue;
    const std::uint64_t victim = q.front();
    q.pop_front();
    const auto vit = map_.find(victim);
    // Remember the victim's frequency in the ghost queue.
    ghost_freq_[victim] = vit->second.freq;
    ghost_order_.push_back(victim);
    if (ghost_order_.size() > 2 * capacity_) {
      ghost_freq_.erase(ghost_order_.front());
      ghost_order_.pop_front();
    }
    map_.erase(vit);
    return BlockKey::unpack(victim);
  }
  return std::nullopt;
}

bool MqCache::contains(BlockKey key) const {
  if (!parts_.empty()) return owner_.find(key.packed()) != owner_.end();
  return map_.find(key.packed()) != map_.end();
}

bool MqCache::touch(BlockKey key, std::uint32_t requester) {
  if (!parts_.empty()) {
    const auto it = owner_.find(key.packed());
    if (it != owner_.end()) return parts_[it->second].touch(key);
    if (requester >= parts_.size()) {
      throw std::invalid_argument("MqCache: requester beyond partition count");
    }
    // Miss: still a reference in the requester's stream — its partition's
    // clock advances (and runs expiry demotion), exactly as the
    // unpartitioned cache's single clock would have.
    return parts_[requester].touch(key);
  }
  ++now_;
  adjust();
  const auto it = map_.find(key.packed());
  if (it == map_.end()) return false;
  Entry& entry = it->second;
  queues_[entry.queue].erase(entry.pos);
  ++entry.freq;
  enqueue(key.packed(), entry);
  return true;
}

std::uint32_t MqCache::touch_run(BlockKey key, std::uint32_t max_blocks,
                                 std::uint32_t requester) {
  // MQ's clock and expiry demotion advance per reference, so a run is
  // genuinely n sequential touches — the saving is call/dispatch overhead,
  // not algorithmic work.
  std::uint32_t n = 0;
  while (n < max_blocks &&
         touch({key.file, key.block + n}, requester)) {
    ++n;
  }
  return n;
}

std::optional<BlockKey> MqCache::insert(BlockKey key, std::uint32_t owner) {
  if (!parts_.empty()) {
    const auto it = owner_.find(key.packed());
    if (it != owner_.end()) {
      // Resident (possibly in another tenant's partition): count the
      // reference where it lives; ownership — and the quota charge —
      // stay put.
      parts_[it->second].touch(key);
      return std::nullopt;
    }
    if (owner >= parts_.size()) {
      throw std::invalid_argument("MqCache: owner beyond partition count");
    }
    owner_.emplace(key.packed(), owner);
    const std::optional<BlockKey> victim = parts_[owner].insert(key);
    if (victim) owner_.erase(victim->packed());
    return victim;
  }
  if (touch(key)) return std::nullopt;  // resident: counted as a reference
  const std::uint64_t packed = key.packed();
  Entry entry;
  // Ghost memory: a re-admitted block resumes its earlier frequency class.
  const auto ghost = ghost_freq_.find(packed);
  entry.freq = ghost != ghost_freq_.end() ? ghost->second + 1 : 1;
  if (ghost != ghost_freq_.end()) ghost_freq_.erase(ghost);
  enqueue(packed, map_.emplace(packed, entry).first->second);

  if (map_.size() <= capacity_) return std::nullopt;
  return evict_one();
}

bool MqCache::erase(BlockKey key) {
  if (!parts_.empty()) {
    const auto it = owner_.find(key.packed());
    if (it == owner_.end()) return false;
    parts_[it->second].erase(key);
    owner_.erase(it);
    return true;
  }
  const auto it = map_.find(key.packed());
  if (it == map_.end()) return false;
  queues_[it->second.queue].erase(it->second.pos);
  map_.erase(it);
  return true;
}

void MqCache::clear() {
  for (auto& q : queues_) q.clear();
  map_.clear();
  ghost_order_.clear();
  ghost_freq_.clear();
  now_ = 0;
  for (MqCache& part : parts_) part.clear();
  owner_.clear();
}

std::optional<std::size_t> MqCache::queue_of(BlockKey key) const {
  if (!parts_.empty()) {
    const auto it = owner_.find(key.packed());
    if (it == owner_.end()) return std::nullopt;
    return parts_[it->second].queue_of(key);
  }
  const auto it = map_.find(key.packed());
  if (it == map_.end()) return std::nullopt;
  return it->second.queue;
}

void MqCache::set_partitions(std::vector<std::size_t> quotas) {
  // Validate everything first: a bad vector leaves the cache untouched.
  std::size_t total = 0;
  for (std::size_t quota : quotas) {
    if (quota == 0) {
      throw std::invalid_argument("MqCache: zero partition quota");
    }
    if (quota > capacity_ - total) {
      throw std::invalid_argument("MqCache: partition quotas exceed capacity");
    }
    total += quota;
  }
  clear();
  parts_.clear();
  parts_.reserve(quotas.size());
  for (std::size_t quota : quotas) {
    // Each partition is a full MQ instance: the life_time default derives
    // from the partition's own quota, so a single full-capacity partition
    // is the unpartitioned cache.
    parts_.emplace_back(quota, queue_count_, life_time_param_);
  }
}

std::size_t MqCache::partition_quota(std::uint32_t tenant) const {
  return tenant < parts_.size() ? parts_[tenant].capacity() : 0;
}

std::size_t MqCache::partition_occupancy(std::uint32_t tenant) const {
  return tenant < parts_.size() ? parts_[tenant].size() : 0;
}

std::optional<std::uint32_t> MqCache::owner_of(BlockKey key) const {
  const auto it = owner_.find(key.packed());
  if (it == owner_.end()) return std::nullopt;
  return it->second;
}

std::vector<BlockKey> MqCache::set_partition_quota(std::uint32_t tenant,
                                                   std::size_t quota) {
  if (tenant >= parts_.size()) {
    throw std::invalid_argument("MqCache: quota for unknown partition");
  }
  if (quota == 0) {
    throw std::invalid_argument("MqCache: zero partition quota");
  }
  MqCache& part = parts_[tenant];
  part.capacity_ = quota;
  std::vector<BlockKey> victims;
  while (part.map_.size() > quota) {
    const std::optional<BlockKey> victim = part.evict_one();
    if (!victim) break;  // unreachable: map_ was over quota
    owner_.erase(victim->packed());
    victims.push_back(*victim);
  }
  return victims;
}

}  // namespace flo::storage
