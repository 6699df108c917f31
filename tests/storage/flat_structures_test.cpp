// Differential tests for the flat storage structures on the simulators'
// per-block path: LruCache (slab + open addressing + in-entry owners),
// EventQueue (inline-key heap) and DiskScheduler (sorted vector). Each
// runs a seeded random operation sequence against a reference model kept
// here — the node-based list + hash map LRU with nested per-tenant caches,
// an ordered set of (time, seq) events, and an ordered map of (lba, seq)
// requests — and must agree on every answer.
// All three structures are deterministic functions of their operation
// sequence, so any disagreement is a bug, never a tolerance question.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <list>
#include <map>
#include <optional>
#include <ostream>
#include <set>
#include <stdexcept>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "storage/disk_sched.hpp"
#include "storage/event_queue.hpp"
#include "storage/lru_cache.hpp"
#include "storage/qos.hpp"
#include "util/rng.hpp"

namespace flo::storage {
namespace {

// --- LruCache ------------------------------------------------------------

/// The list + map LRU the slab replaced: MRU at the list front, a hash map
/// into the list, and one nested cache per tenant behind an owner map when
/// partitioned.
class RefLru {
 public:
  explicit RefLru(std::size_t capacity) : capacity_(capacity) {}

  std::size_t size() const {
    return parts_.empty() ? map_.size() : owner_.size();
  }
  bool contains(std::uint64_t key) const {
    if (!parts_.empty()) return owner_.count(key) != 0;
    return map_.count(key) != 0;
  }
  bool touch(std::uint64_t key) {
    if (!parts_.empty()) {
      const auto it = owner_.find(key);
      if (it == owner_.end()) return false;
      return parts_[it->second].touch(key);
    }
    const auto it = map_.find(key);
    if (it == map_.end()) return false;
    order_.splice(order_.begin(), order_, it->second);
    return true;
  }
  std::optional<std::uint64_t> insert(std::uint64_t key, std::uint32_t owner) {
    if (!parts_.empty()) {
      const auto it = owner_.find(key);
      if (it != owner_.end()) {
        parts_[it->second].touch(key);
        return std::nullopt;
      }
      owner_.emplace(key, owner);
      const auto victim = parts_[owner].insert(key, 0);
      if (victim) owner_.erase(*victim);
      return victim;
    }
    if (touch(key)) return std::nullopt;
    order_.push_front(key);
    map_.emplace(key, order_.begin());
    if (map_.size() <= capacity_) return std::nullopt;
    const std::uint64_t victim = order_.back();
    order_.pop_back();
    map_.erase(victim);
    return victim;
  }
  bool erase(std::uint64_t key) {
    if (!parts_.empty()) {
      const auto it = owner_.find(key);
      if (it == owner_.end()) return false;
      parts_[it->second].erase(key);
      owner_.erase(it);
      return true;
    }
    const auto it = map_.find(key);
    if (it == map_.end()) return false;
    order_.erase(it->second);
    map_.erase(it);
    return true;
  }
  std::optional<std::uint64_t> lru_key() const {
    if (!parts_.empty()) {
      const RefLru* occupied = nullptr;
      for (const RefLru& part : parts_) {
        if (part.size() == 0) continue;
        if (occupied != nullptr) return std::nullopt;
        occupied = &part;
      }
      return occupied == nullptr ? std::nullopt : occupied->lru_key();
    }
    if (order_.empty()) return std::nullopt;
    return order_.back();
  }
  void set_partitions(const std::vector<std::size_t>& quotas) {
    order_.clear();
    map_.clear();
    owner_.clear();
    parts_.clear();
    for (std::size_t quota : quotas) parts_.emplace_back(quota);
  }
  std::size_t partition_quota(std::uint32_t t) const {
    return t < parts_.size() ? parts_[t].capacity_ : 0;
  }
  std::size_t partition_occupancy(std::uint32_t t) const {
    return t < parts_.size() ? parts_[t].size() : 0;
  }
  std::optional<std::uint32_t> owner_of(std::uint64_t key) const {
    const auto it = owner_.find(key);
    if (it == owner_.end()) return std::nullopt;
    return it->second;
  }
  std::vector<std::uint64_t> set_partition_quota(std::uint32_t t,
                                                 std::size_t quota) {
    RefLru& part = parts_[t];
    part.capacity_ = quota;
    std::vector<std::uint64_t> victims;
    while (part.map_.size() > quota) {
      const std::uint64_t victim = part.order_.back();
      part.order_.pop_back();
      part.map_.erase(victim);
      owner_.erase(victim);
      victims.push_back(victim);
    }
    return victims;
  }

 private:
  std::size_t capacity_;
  std::list<std::uint64_t> order_;
  std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator> map_;
  std::vector<RefLru> parts_;
  std::unordered_map<std::uint64_t, std::uint32_t> owner_;
};

std::optional<std::uint64_t> packed(const std::optional<BlockKey>& key) {
  if (!key) return std::nullopt;
  return key->packed();
}

struct LruCase {
  std::size_t capacity;
  std::size_t partitions;  ///< 0 = unpartitioned
};

void PrintTo(const LruCase& c, std::ostream* os) {
  *os << "capacity " << c.capacity << ", partitions " << c.partitions;
}

class LruDifferentialTest : public ::testing::TestWithParam<LruCase> {};

TEST_P(LruDifferentialTest, MatchesListMapReference) {
  const LruCase c = GetParam();
  LruCache cache(c.capacity);
  RefLru ref(c.capacity);
  std::vector<std::size_t> quotas;
  if (c.partitions > 0) {
    // An uneven split that leaves slack for quota growth when it can.
    quotas.assign(c.partitions, std::max<std::size_t>(1, c.capacity / 4));
    quotas[0] = std::max<std::size_t>(1, c.capacity / 8);
    cache.set_partitions(quotas);
    ref.set_partitions(quotas);
  }
  const auto quota_sum = [&] {
    std::size_t sum = 0;
    for (std::uint32_t t = 0; t < c.partitions; ++t) {
      sum += cache.partition_quota(t);
    }
    return sum;
  };
  util::Rng rng(0x5eed0000 + c.capacity * 8 + c.partitions);
  // Keys from two files over a span a little wider than the capacity, so
  // hits, misses and evictions all stay frequent.
  const std::uint64_t span = 2 * c.capacity + 6;
  const auto random_key = [&] {
    return BlockKey{static_cast<FileId>(rng.next_below(2)),
                    rng.next_below(span)};
  };
  const std::uint32_t owners =
      static_cast<std::uint32_t>(std::max<std::size_t>(1, c.partitions));
  constexpr int kOps = 12000;
  for (int op = 0; op < kOps; ++op) {
    SCOPED_TRACE("op " + std::to_string(op));
    const BlockKey key = random_key();
    switch (rng.next_below(10)) {
      case 0:
      case 1:
        ASSERT_EQ(cache.touch(key), ref.touch(key.packed()));
        break;
      case 2: {
        // touch_run is n successive touches that stop at the first miss.
        const auto n = static_cast<std::uint32_t>(rng.next_below(9));
        std::uint32_t expect = 0;
        while (expect < n && ref.touch(key.packed() + expect)) ++expect;
        ASSERT_EQ(cache.touch_run(key, n), expect);
        break;
      }
      case 4:
      case 5:
      case 6: {
        const auto owner =
            static_cast<std::uint32_t>(rng.next_below(owners));
        ASSERT_EQ(packed(cache.insert(key, owner)),
                  ref.insert(key.packed(), owner));
        break;
      }
      case 7:
        ASSERT_EQ(cache.erase(key), ref.erase(key.packed()));
        break;
      case 3:
      case 8:
        ASSERT_EQ(packed(cache.lru_key()), ref.lru_key());
        ASSERT_EQ(cache.owner_of(key), ref.owner_of(key.packed()));
        ASSERT_EQ(cache.contains(key), ref.contains(key.packed()));
        break;
      case 9: {
        if (c.partitions == 0) break;
        // Shrink or grow one quota within the capacity; now and then try
        // a grow past it, which must throw and change nothing.
        const auto t = static_cast<std::uint32_t>(rng.next_below(owners));
        const std::size_t limit =
            cache.partition_quota(t) + (c.capacity - quota_sum());
        if (rng.next_below(8) == 0) {
          const std::size_t before = cache.size();
          ASSERT_THROW(cache.set_partition_quota(t, limit + 1),
                       std::invalid_argument);
          ASSERT_EQ(cache.partition_quota(t), ref.partition_quota(t));
          ASSERT_EQ(cache.size(), before);
          break;
        }
        const std::size_t quota = 1 + rng.next_below(limit);
        std::vector<std::uint64_t> victims;
        for (BlockKey v : cache.set_partition_quota(t, quota)) {
          victims.push_back(v.packed());
        }
        ASSERT_EQ(victims, ref.set_partition_quota(t, quota));
        break;
      }
    }
    ASSERT_EQ(cache.size(), ref.size());
    ASSERT_LE(cache.size(), c.capacity);
    for (std::uint32_t t = 0; t < c.partitions; ++t) {
      ASSERT_EQ(cache.partition_quota(t), ref.partition_quota(t));
      ASSERT_EQ(cache.partition_occupancy(t), ref.partition_occupancy(t));
    }
  }
}

// Capacity 1 cannot hold three non-empty partitions; it runs as a single
// full partition instead.
INSTANTIATE_TEST_SUITE_P(
    Capacities, LruDifferentialTest,
    ::testing::Values(LruCase{1, 0}, LruCase{1, 1}, LruCase{3, 0},
                      LruCase{3, 3}, LruCase{64, 0}, LruCase{64, 3},
                      LruCase{128, 0}, LruCase{128, 3}),
    [](const ::testing::TestParamInfo<LruCase>& info) {
      return "cap" + std::to_string(info.param.capacity) + "_parts" +
             std::to_string(info.param.partitions);
    });

// --- EventQueue ----------------------------------------------------------

TEST(EventQueueDifferentialTest, MatchesOrderedSetReference) {
  using Key = std::tuple<double, std::uint64_t, EventKind, std::uint32_t,
                         std::uint64_t>;
  EventQueue queue;
  std::set<Key> ref;
  std::uint64_t seq = 0;
  std::size_t max_pending = 0;
  double now = 0;
  util::Rng rng(20261017);
  std::size_t pushes = 0;
  std::size_t ties = 0;
  for (int op = 0; op < 40000; ++op) {
    SCOPED_TRACE("op " + std::to_string(op));
    if (!ref.empty() && rng.next_below(100) < 48) {
      const Key expect = *ref.begin();
      ref.erase(ref.begin());
      ASSERT_DOUBLE_EQ(queue.next_time(), std::get<0>(expect));
      const Event e = queue.pop();
      ASSERT_EQ(e.time, std::get<0>(expect));
      ASSERT_EQ(e.kind, std::get<2>(expect));
      ASSERT_EQ(e.a, std::get<3>(expect));
      ASSERT_EQ(e.b, std::get<4>(expect));
      now = e.time;
      continue;
    }
    // Over half the pushes tie the current time; the rest land on a
    // coarse grid ahead of it, so future events tie among themselves too.
    double time = now;
    if (rng.next_below(100) >= 55) {
      time = now + 0.25 * static_cast<double>(1 + rng.next_below(12));
    }
    const auto kind = static_cast<EventKind>(rng.next_below(6));
    const auto a = static_cast<std::uint32_t>(rng.next_below(192));
    const std::uint64_t b = rng.next_u64();
    queue.push(time, kind, a, b);
    ref.emplace(time, seq++, kind, a, b);
    ++pushes;
    if (time == now) ++ties;
    max_pending = std::max(max_pending, ref.size());
    ASSERT_EQ(queue.size(), ref.size());
  }
  while (!ref.empty()) {
    const Key expect = *ref.begin();
    ref.erase(ref.begin());
    const Event e = queue.pop();
    ASSERT_EQ(e.time, std::get<0>(expect));
    ASSERT_EQ(e.a, std::get<3>(expect));
    ASSERT_EQ(e.b, std::get<4>(expect));
  }
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.max_pending(), max_pending);
  EXPECT_GE(pushes, 10000u);
  EXPECT_GE(2 * ties, pushes);
}

TEST(EventQueueTest, EarlierPushesAndTiesKeepTimeOrderAndFifo) {
  EventQueue q;
  q.push(5.0, EventKind::kDiskDone, 1);
  q.push(2.0, EventKind::kIoArrive, 2);     // ahead of everything
  q.push(1.0, EventKind::kThreadIssue, 3);  // ahead again: 2.0 moves back
  q.push(1.0, EventKind::kIoDone, 4);       // ties 1.0, fires after it
  EXPECT_DOUBLE_EQ(q.next_time(), 1.0);
  EXPECT_EQ(q.pop().a, 3u);
  EXPECT_EQ(q.pop().a, 4u);
  q.push(2.0, EventKind::kIoDone, 5);  // ties the pending 2.0, posted later
  EXPECT_EQ(q.pop().a, 2u);
  EXPECT_EQ(q.pop().a, 5u);
  EXPECT_EQ(q.pop().a, 1u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.max_pending(), 4u);
}

// --- DiskScheduler -------------------------------------------------------

/// The ordered-map scheduler the sorted vector replaced.
class RefScheduler {
 public:
  RefScheduler(SchedPolicyKind policy, double window)
      : policy_(policy), window_(window) {}
  bool empty() const { return pending_.empty(); }
  std::size_t size() const { return pending_.size(); }
  void push(std::uint64_t lba, std::uint32_t thread, double arrival,
            std::uint32_t priority) {
    pending_.emplace(
        std::pair{lba, seq_++},
        Rec{thread, arrival + window_ / static_cast<double>(
                                            priority == 0 ? 1 : priority)});
  }
  std::uint32_t pop(std::uint64_t head) {
    auto it = pending_.begin();
    switch (policy_) {
      case SchedPolicyKind::kLook:
        it = pending_.lower_bound({head, 0});
        if (upward_) {
          if (it == pending_.end()) {
            upward_ = false;
            it = std::prev(pending_.end());
          }
        } else if (it == pending_.begin()) {
          upward_ = true;
        } else {
          it = std::prev(it);
        }
        break;
      case SchedPolicyKind::kFcfs:
        for (auto cand = pending_.begin(); cand != pending_.end(); ++cand) {
          if (cand->first.second < it->first.second) it = cand;
        }
        break;
      case SchedPolicyKind::kPriority:
        for (auto cand = pending_.begin(); cand != pending_.end(); ++cand) {
          if (cand->second.deadline < it->second.deadline ||
              (cand->second.deadline == it->second.deadline &&
               cand->first.second < it->first.second)) {
            it = cand;
          }
        }
        break;
    }
    const std::uint32_t thread = it->second.thread;
    pending_.erase(it);
    return thread;
  }

 private:
  struct Rec {
    std::uint32_t thread;
    double deadline;
  };
  SchedPolicyKind policy_;
  double window_;
  std::map<std::pair<std::uint64_t, std::uint64_t>, Rec> pending_;
  bool upward_ = true;
  std::uint64_t seq_ = 0;
};

/// Parameterized by policy name, so ctest names and GetParam() read as
/// the FLO_SCHED spelling.
class DiskSchedulerDifferentialTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(DiskSchedulerDifferentialTest, MatchesOrderedMapReference) {
  const SchedPolicyKind policy = parse_sched_policy(GetParam()).value();
  DiskScheduler sched(policy, 20e-3);
  RefScheduler ref(policy, 20e-3);
  util::Rng rng(7 + static_cast<std::uint64_t>(policy));
  double now = 0;
  std::uint64_t head = 0;
  std::uint32_t next_thread = 0;
  for (int op = 0; op < 20000; ++op) {
    SCOPED_TRACE("op " + std::to_string(op));
    now += 1e-3 * static_cast<double>(rng.next_below(4));
    // Pops lag pushes slightly at first, so the queue fills to depths of
    // dozens and drains again; a narrow lba range makes lba ties common.
    if (!ref.empty() && rng.next_below(100) < 47 + (ref.size() > 48 ? 10 : 0)) {
      const std::uint32_t expect = ref.pop(head);
      ASSERT_EQ(sched.pop(head), expect);
      head = rng.next_below(4) == 0 ? rng.next_below(512) : head + 1;
    } else {
      const std::uint64_t lba = rng.next_below(512);
      const auto priority = static_cast<std::uint32_t>(rng.next_below(5));
      sched.push(lba, next_thread, now, priority);
      ref.push(lba, next_thread, now, priority);
      ++next_thread;
    }
    ASSERT_EQ(sched.size(), ref.size());
  }
  while (!ref.empty()) ASSERT_EQ(sched.pop(head), ref.pop(head));
  EXPECT_TRUE(sched.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Policies, DiskSchedulerDifferentialTest,
    ::testing::Values("look", "fcfs", "priority"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

}  // namespace
}  // namespace flo::storage
