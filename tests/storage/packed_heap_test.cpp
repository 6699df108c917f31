// PackedHeap (storage/packed_heap.hpp), the scheduler of both simulator
// cores, against std::priority_queue references: the key packing must
// order exactly like (time, tiebreak), and the clock core's way of driving
// the heap — the running thread kept at the root, its key overwritten and
// sifted down once when it stops, a pop only when its stream ends — must
// schedule threads in the order a pop-then-push priority queue does.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "storage/packed_heap.hpp"
#include "util/rng.hpp"

namespace flo::storage {
namespace {

TEST(PackedHeapTest, KeysOrderLikeTimeThenTiebreak) {
  const std::vector<double> times = {
      0.0, std::numeric_limits<double>::denorm_min(), 1e-300, 5e-9, 0.25,
      0.5, 1.0, 3.0, 1e300, std::numeric_limits<double>::max(),
      std::numeric_limits<double>::infinity()};
  const std::vector<std::uint64_t> lows = {0, 1, 7, (1ull << 32) - 1,
                                           ~std::uint64_t{0}};
  for (double ta : times) {
    for (double tb : times) {
      for (std::uint64_t la : lows) {
        for (std::uint64_t lb : lows) {
          const bool expect = std::make_pair(ta, la) < std::make_pair(tb, lb);
          ASSERT_EQ(pack_key(ta, la) < pack_key(tb, lb), expect)
              << ta << "/" << la << " vs " << tb << "/" << lb;
        }
      }
      ASSERT_LT(pack_key(ta, ~std::uint64_t{0}), kSentinelKey);
    }
  }
  // Round trip, and -0.0 (which compares equal to +0.0 but whose sign bit
  // would sort it last) folds onto +0.0.
  EXPECT_EQ(key_time(pack_key(0.375, 9)), 0.375);
  EXPECT_EQ(key_low(pack_key(0.375, 9)), 9u);
  EXPECT_EQ(pack_key(-0.0, 3), pack_key(0.0, 3));
  EXPECT_LT(pack_key(-0.0, 3), pack_key(1e-300, 0));
}

TEST(PackedHeapTest, PushPopMatchesPriorityQueue) {
  // Few distinct times, so most keys tie on time and order by the low
  // half alone; nodes carry a payload the way the event queue's do.
  struct Node {
    HeapKey key;
    std::uint32_t payload;
  };
  using Ref = std::pair<HeapKey, std::uint32_t>;
  PackedHeap<Node> heap;
  std::priority_queue<Ref, std::vector<Ref>, std::greater<Ref>> ref;
  util::Rng rng(20261018);
  std::uint64_t seq = 0;
  for (int op = 0; op < 60000; ++op) {
    SCOPED_TRACE("op " + std::to_string(op));
    if (!ref.empty() && rng.next_below(100) < 45) {
      ASSERT_EQ(heap.top().key, ref.top().first);
      ASSERT_EQ(heap.top().payload, ref.top().second);
      heap.pop();
      ref.pop();
    } else {
      const double time = 0.125 * static_cast<double>(rng.next_below(8));
      const HeapKey key = pack_key(time, seq++);
      const auto payload = static_cast<std::uint32_t>(rng.next_u64());
      heap.push({key, payload});
      ref.push({key, payload});
    }
    ASSERT_EQ(heap.size(), ref.size());
  }
  while (!ref.empty()) {
    ASSERT_EQ(heap.top().key, ref.top().first);
    heap.pop();
    ref.pop();
  }
  EXPECT_TRUE(heap.empty());
}

TEST(PackedHeapTest, RunnerUpIsTheSmallestKeyBelowTheRoot) {
  PackedHeap<HeapKey> heap;
  heap.push(pack_key(1.0, 4));
  EXPECT_EQ(heap.runner_up(), kSentinelKey);  // the root alone
  heap.push(pack_key(1.0, 2));
  EXPECT_EQ(heap.top(), pack_key(1.0, 2));
  EXPECT_EQ(heap.runner_up(), pack_key(1.0, 4));
  heap.push(pack_key(0.5, 9));
  heap.push(pack_key(2.0, 1));
  EXPECT_EQ(heap.top(), pack_key(0.5, 9));
  EXPECT_EQ(heap.runner_up(), pack_key(1.0, 2));
  heap.replace_top(pack_key(3.0, 9));  // the root thread ran past everyone
  EXPECT_EQ(heap.top(), pack_key(1.0, 2));
  EXPECT_EQ(heap.runner_up(), pack_key(1.0, 4));
  heap.pop();
  heap.pop();
  heap.pop();
  EXPECT_EQ(heap.top(), pack_key(3.0, 9));
  EXPECT_EQ(heap.runner_up(), kSentinelKey);
  heap.pop();
  EXPECT_TRUE(heap.empty());
}

// The clock core's scheduling loop against the loop it replaced: a
// priority queue of (clock, thread) that pops the minimum, charges one
// block and pushes the thread back. Each thread's per-block charges come
// from a small set (zero included), so equal clocks are common and the
// thread id breaks them; streams end at random points mid-phase, and an
// empty stream never enters; every phase starts from barrier-aligned
// clocks. Both loops must serve the blocks in the same thread order and
// end with bit-identical clocks.
TEST(PackedHeapTest, SchedulerMatchesPriorityQueueReference) {
  using Entry = std::pair<double, std::uint32_t>;
  using RefQueue =
      std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>>;
  const std::vector<double> charge_set = {0.0, 0.25, 0.5, 0.75, 1.0, 2.5};
  util::Rng rng(77);
  std::size_t blocks = 0;
  std::size_t stops = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const auto threads = static_cast<std::uint32_t>(1 + rng.next_below(70));
    std::vector<double> ref_clock(threads, 0.0);
    std::vector<double> clock(threads, 0.0);
    PackedHeap<HeapKey> heap;
    for (int phase = 0; phase < 3; ++phase) {
      SCOPED_TRACE("trial " + std::to_string(trial) + " phase " +
                   std::to_string(phase));
      // charges[t][k]: what thread t's k-th block of this phase costs.
      std::vector<std::vector<double>> charges(threads);
      for (auto& stream : charges) {
        stream.resize(rng.next_below(60));
        for (double& c : stream) {
          c = charge_set[rng.next_below(charge_set.size())];
        }
      }

      std::vector<std::uint32_t> ref_order;
      RefQueue ref;
      std::vector<std::size_t> served(threads, 0);
      for (std::uint32_t t = 0; t < threads; ++t) {
        if (!charges[t].empty()) ref.push({ref_clock[t], t});
      }
      while (!ref.empty()) {
        auto [now, t] = ref.top();
        ref.pop();
        now += charges[t][served[t]++];
        ref_order.push_back(t);
        ref_clock[t] = now;
        if (served[t] < charges[t].size()) ref.push({now, t});
      }

      std::vector<std::uint32_t> order;
      std::fill(served.begin(), served.end(), 0);
      for (std::uint32_t t = 0; t < threads; ++t) {
        if (!charges[t].empty()) heap.push(pack_key(clock[t], t));
      }
      while (!heap.empty()) {
        const auto t = static_cast<std::uint32_t>(key_low(heap.top()));
        const HeapKey budget = heap.runner_up();
        double now = key_time(heap.top());
        bool finished = false;
        for (;;) {
          now += charges[t][served[t]++];
          order.push_back(t);
          if (served[t] == charges[t].size()) {
            finished = true;
            break;
          }
          if (!(pack_key(now, t) < budget)) break;
        }
        clock[t] = now;
        if (finished) {
          heap.pop();
        } else {
          heap.replace_top(pack_key(now, t));
          ++stops;
        }
      }

      ASSERT_EQ(order, ref_order);
      ASSERT_EQ(clock, ref_clock);
      blocks += order.size();
      double barrier = 0;
      for (double c : clock) barrier = std::max(barrier, c);
      std::fill(clock.begin(), clock.end(), barrier);
      std::fill(ref_clock.begin(), ref_clock.end(), barrier);
    }
  }
  EXPECT_GT(blocks, 50000u);
  EXPECT_GT(stops, 10000u);
}

}  // namespace
}  // namespace flo::storage
