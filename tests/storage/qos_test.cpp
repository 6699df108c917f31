// Tenant QoS unit coverage (DESIGN.md §4k): the spec parser, the
// largest-remainder quota apportionment, per-tenant LRU cache partitions,
// the pluggable disk scheduler, and the
// simulator's per-tenant attribution under partitioning — including the
// zero-access-tenant convention the delta-snapshot accounting must keep.
#include "storage/qos.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>

#include "storage/disk_sched.hpp"
#include "storage/lru_cache.hpp"
#include "storage/simulator.hpp"

namespace flo::storage {
namespace {

// --- parse_qos_spec ------------------------------------------------------

TEST(ParseQosSpecTest, EmptySpecIsDisabled) {
  const QosConfig config = parse_qos_spec("");
  EXPECT_FALSE(config.enabled);
  EXPECT_EQ(config, QosConfig{});
}

TEST(ParseQosSpecTest, FullSpec) {
  const QosConfig config = parse_qos_spec(
      "shares=4:2:1,prio=2:1:1,dynamic=1,epoch=512,sched=priority,"
      "window=0.05");
  EXPECT_TRUE(config.enabled);
  EXPECT_EQ(config.shares, (std::vector<std::uint32_t>{4, 2, 1}));
  EXPECT_EQ(config.priorities, (std::vector<std::uint32_t>{2, 1, 1}));
  EXPECT_TRUE(config.dynamic_shares);
  EXPECT_EQ(config.epoch_accesses, 512u);
  EXPECT_EQ(config.scheduler, SchedPolicyKind::kPriority);
  EXPECT_DOUBLE_EQ(config.sched_window, 0.05);
}

TEST(ParseQosSpecTest, MalformedSpecsThrow) {
  EXPECT_THROW(parse_qos_spec("frobnicate=1"), std::invalid_argument);
  EXPECT_THROW(parse_qos_spec("shares"), std::invalid_argument);
  EXPECT_THROW(parse_qos_spec("shares=0:1"), std::invalid_argument);
  EXPECT_THROW(parse_qos_spec("shares=a:b"), std::invalid_argument);
  EXPECT_THROW(parse_qos_spec("prio=1:0"), std::invalid_argument);
  EXPECT_THROW(parse_qos_spec("sched=elevator"), std::invalid_argument);
  EXPECT_THROW(parse_qos_spec("epoch=0"), std::invalid_argument);
  EXPECT_THROW(parse_qos_spec("window=0"), std::invalid_argument);
  EXPECT_THROW(parse_qos_spec("window=nope"), std::invalid_argument);
  // Dynamic mode has nothing to rebalance without shares.
  EXPECT_THROW(parse_qos_spec("dynamic=1"), std::invalid_argument);
}

TEST(ParseQosSpecTest, IntegersAreDigitsOnlyAndFitTheirField) {
  // A sign, a blank, or a value wider than the field it fills is a
  // "qos spec:" error, not a wrapped or truncated number.
  for (const char* bad :
       {"epoch=-1", "epoch=+3", "epoch= 7", "epoch=7 ", "dynamic=-1",
        "shares=-1:1", "shares=+2:1", "shares=4294967296:1", "prio=1: 2",
        "prio=4294967296:1", "epoch=18446744073709551616"}) {
    try {
      parse_qos_spec(bad);
      ADD_FAILURE() << "accepted '" << bad << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(std::string(e.what()).rfind("qos spec: ", 0), 0u)
          << bad << ": " << e.what();
    }
  }
  // The widest value of each field still parses.
  EXPECT_EQ(parse_qos_spec("shares=4294967295:1").shares.front(),
            4294967295u);
  EXPECT_EQ(parse_qos_spec("epoch=18446744073709551615").epoch_accesses,
            18446744073709551615ull);
}

TEST(ParseSchedPolicyTest, NamesRoundTrip) {
  for (SchedPolicyKind policy :
       {SchedPolicyKind::kLook, SchedPolicyKind::kFcfs,
        SchedPolicyKind::kPriority}) {
    const auto parsed = parse_sched_policy(sched_policy_name(policy));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, policy);
  }
  EXPECT_FALSE(parse_sched_policy("elevator").has_value());
  EXPECT_FALSE(parse_sched_policy("LOOK").has_value());
}

// --- quota_partition -----------------------------------------------------

TEST(QuotaPartitionTest, EqualSharesSplitEvenly) {
  const auto quota = quota_partition(8, 2, {});
  EXPECT_EQ(quota, (std::vector<std::size_t>{4, 4}));
}

TEST(QuotaPartitionTest, WeightedSharesApportionExactly) {
  const auto quota = quota_partition(7, 3, {4, 2, 1});
  EXPECT_EQ(quota, (std::vector<std::size_t>{4, 2, 1}));
}

TEST(QuotaPartitionTest, SumsToCapacityWithRemainders) {
  const auto quota = quota_partition(10, 3, {1, 1, 1});
  EXPECT_EQ(std::accumulate(quota.begin(), quota.end(), std::size_t{0}),
            10u);
  // Largest-remainder with equal weights: the extra block goes to the
  // lowest tenant id.
  EXPECT_EQ(quota, (std::vector<std::size_t>{4, 3, 3}));
}

TEST(QuotaPartitionTest, OneBlockFloorForStarvedTenants) {
  const auto quota = quota_partition(4, 3, {100, 1, 1});
  EXPECT_EQ(std::accumulate(quota.begin(), quota.end(), std::size_t{0}), 4u);
  EXPECT_GE(quota[1], 1u);
  EXPECT_GE(quota[2], 1u);
}

TEST(QuotaPartitionTest, RejectsImpossibleConfigurations) {
  EXPECT_THROW(quota_partition(2, 3, {}), std::invalid_argument);
  EXPECT_THROW(quota_partition(8, 3, {1, 1}), std::invalid_argument);
}

TEST(QuotaPartitionTest, RejectsAllZeroShares) {
  // No weight to apportion by: a loud error, not a division by zero.
  EXPECT_THROW(quota_partition(8, 2, {0, 0}), std::invalid_argument);
}

// --- LruCache partitions -------------------------------------------------

TEST(LruPartitionTest, VictimsComeFromTheOwnersOwnPartition) {
  LruCache cache(4);
  cache.set_partitions({2, 2});
  ASSERT_TRUE(cache.partitioned());

  cache.insert({0, 1}, 0);
  cache.insert({0, 2}, 0);
  cache.insert({1, 1}, 1);

  // Tenant 0 overflows its 2-block quota: the victim is its own LRU
  // (block 1), never tenant 1's resident block.
  const auto victim = cache.insert({0, 3}, 0);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->key, (BlockKey{0, 1}));
  EXPECT_TRUE(cache.contains({1, 1}));
  EXPECT_EQ(cache.partition_occupancy(0), 2u);
  EXPECT_EQ(cache.partition_occupancy(1), 1u);
  EXPECT_EQ(cache.owner_of({0, 3}), std::optional<std::uint32_t>{0});
  EXPECT_EQ(cache.owner_of({1, 1}), std::optional<std::uint32_t>{1});
}

TEST(LruPartitionTest, QuotaSumAboveCapacityRejected) {
  LruCache cache(4);
  EXPECT_THROW(cache.set_partitions({3, 2}), std::invalid_argument);
}

TEST(LruPartitionTest, QuotaGrowPastCapacityRejected) {
  LruCache cache(8);
  cache.set_partitions({3, 3});
  cache.insert({0, 1}, 0);
  // 3 + 3 of 8 leaves 2 blocks of slack: 5 is the largest legal quota.
  EXPECT_THROW(cache.set_partition_quota(0, 6), std::invalid_argument);
  EXPECT_EQ(cache.partition_quota(0), 3u);
  EXPECT_TRUE(cache.contains({0, 1}));
  EXPECT_TRUE(cache.set_partition_quota(0, 5).empty());
  EXPECT_THROW(cache.set_partition_quota(1, 4), std::invalid_argument);
  EXPECT_TRUE(cache.set_partition_quota(1, 3).empty());
}

TEST(LruPartitionTest, ZeroQuotaLeavesTheCacheUnpartitioned) {
  LruCache cache(8);
  try {
    cache.set_partitions({2, 0, 3});
    FAIL() << "a zero quota must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "LruCache: zero partition quota");
  }
  EXPECT_FALSE(cache.partitioned());
  EXPECT_EQ(cache.partition_count(), 0u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.insert({0, 1}, 1).has_value());
  EXPECT_TRUE(cache.contains({0, 1}));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(LruPartitionTest, ShrinkingAQuotaEvictsItsLruBlocks) {
  LruCache cache(4);
  cache.set_partitions({3, 1});
  cache.insert({0, 1}, 0);
  cache.insert({0, 2}, 0, /*dirty=*/true);
  cache.insert({0, 3}, 0);
  const auto victims = cache.set_partition_quota(0, 1);
  ASSERT_EQ(victims.size(), 2u);
  EXPECT_EQ(victims[0], (Victim{{0, 1}, false}));  // LRU first
  EXPECT_EQ(victims[1], (Victim{{0, 2}, true}));   // with its dirty bit
  EXPECT_EQ(cache.partition_quota(0), 1u);
  EXPECT_TRUE(cache.contains({0, 3}));
  // Growing never evicts.
  EXPECT_TRUE(cache.set_partition_quota(0, 3).empty());
}

TEST(LruPartitionTest, SingleFullPartitionMatchesUnpartitionedCache) {
  LruCache plain(3);
  LruCache single(3);
  single.set_partitions({3});
  const std::vector<std::uint64_t> refs = {1, 2, 3, 1, 4, 2, 5, 5, 1};
  for (std::uint64_t b : refs) {
    const BlockKey key{0, b};
    const bool hit_plain = plain.touch(key);
    const bool hit_single = single.touch(key);
    EXPECT_EQ(hit_plain, hit_single) << "block " << b;
    if (!hit_plain) {
      EXPECT_EQ(plain.insert(key), single.insert(key, 0)) << "block " << b;
    }
  }
  EXPECT_EQ(plain.size(), single.size());
}

// --- DiskScheduler -------------------------------------------------------

TEST(DiskSchedulerTest, FcfsPopsInArrivalOrder) {
  DiskScheduler sched(SchedPolicyKind::kFcfs, 20e-3);
  sched.push(/*lba=*/90, /*thread=*/0, /*arrival=*/0.0, /*priority=*/1);
  sched.push(10, 1, 0.1, 1);
  sched.push(50, 2, 0.2, 1);
  EXPECT_EQ(sched.pop(0), 0u);
  EXPECT_EQ(sched.pop(0), 1u);
  EXPECT_EQ(sched.pop(0), 2u);
  EXPECT_TRUE(sched.empty());
}

TEST(DiskSchedulerTest, LookSweepsUpwardThenReverses) {
  DiskScheduler sched(SchedPolicyKind::kLook, 20e-3);
  sched.push(30, 0, 0.0, 1);
  sched.push(10, 1, 0.0, 1);
  sched.push(50, 2, 0.0, 1);
  // Head at 20, sweeping upward: 30, then 50, then reverse down to 10.
  EXPECT_EQ(sched.pop(20), 0u);
  EXPECT_EQ(sched.pop(30), 2u);
  EXPECT_EQ(sched.pop(50), 1u);
}

TEST(DiskSchedulerTest, PriorityPopsTheEarliestDeadline) {
  DiskScheduler sched(SchedPolicyKind::kPriority, 20e-3);
  // Same arrival: deadline = arrival + window / priority, so the
  // priority-4 request's deadline is earliest regardless of lba order.
  sched.push(10, 0, 0.0, 1);
  sched.push(90, 1, 0.0, 4);
  sched.push(50, 2, 0.0, 2);
  EXPECT_EQ(sched.pop(0), 1u);
  EXPECT_EQ(sched.pop(0), 2u);
  EXPECT_EQ(sched.pop(0), 0u);
}

TEST(DiskSchedulerTest, PriorityNeverStarvesEarlyArrivals) {
  DiskScheduler sched(SchedPolicyKind::kPriority, 20e-3);
  // A low-priority request admitted early beats a high-priority request
  // admitted much later: deadlines are fixed at enqueue, so waiting wins.
  sched.push(10, 0, 0.0, 1);     // deadline 0.020
  sched.push(90, 1, 0.030, 4);   // deadline 0.035
  EXPECT_EQ(sched.pop(0), 0u);
  EXPECT_EQ(sched.pop(0), 1u);
}

TEST(DiskSchedulerTest, PopOnEmptyThrows) {
  DiskScheduler sched(SchedPolicyKind::kFcfs, 20e-3);
  EXPECT_THROW(sched.pop(0), std::logic_error);
}

// --- simulator attribution under partitioning ----------------------------

TopologyConfig qos_config(std::vector<std::uint32_t> shares) {
  TopologyConfig c;
  c.compute_nodes = 2;
  c.io_nodes = 1;
  c.storage_nodes = 1;
  c.block_size = 2048;
  c.io_cache_bytes = 4 * c.block_size;
  c.storage_cache_bytes = 8 * c.block_size;
  c.qos.enabled = true;
  c.qos.shares = std::move(shares);
  return c;
}

TraceProgram two_thread_trace(std::vector<std::uint64_t> thread0,
                              std::vector<std::uint64_t> thread1) {
  TraceProgram trace;
  trace.file_blocks = {64};
  PhaseTrace phase;
  phase.per_thread.resize(2);
  for (std::uint64_t b : thread0) phase.per_thread[0].push_back({0, b, 1});
  for (std::uint64_t b : thread1) phase.per_thread[1].push_back({0, b, 1});
  trace.phases.push_back(std::move(phase));
  return trace;
}

TEST(SimulatorQosTest, ZeroAccessTenantSnapshotsToAllZero) {
  const StorageTopology topo(qos_config({1, 1}));
  HierarchySimulator sim(topo, PolicyKind::kLruInclusive,
                         {0, 0});
  sim.set_tenants({0, 1}, 2);
  // Tenant 1's thread issues nothing: its delta-snapshot slice must be
  // all-zero (any() false), even though a quota was carved out for it.
  const auto result =
      sim.run(two_thread_trace({1, 2, 3, 1, 2, 3}, {}));
  ASSERT_EQ(result.tenants.size(), 2u);
  EXPECT_FALSE(result.tenants[1].any());
  EXPECT_EQ(result.tenants[1], TenantStats{});
  // ...and tenant 0's slice conserves the aggregates exactly.
  EXPECT_EQ(result.tenants[0].accesses, result.accesses);
  EXPECT_EQ(result.tenants[0].io_lookups, result.io.lookups);
  EXPECT_EQ(result.tenants[0].io_hits, result.io.hits);
  EXPECT_GT(result.tenants[0].occupancy_peak, 0u);
}

TEST(SimulatorQosTest, EvictionsAreAttributedToTheInsertingTenant) {
  const StorageTopology topo(qos_config({1, 1}));
  HierarchySimulator sim(topo, PolicyKind::kLruInclusive, {0, 0});
  sim.set_tenants({0, 1}, 2);
  // The shared I/O cache holds 4 blocks, 2 per tenant. Tenant 0 streams
  // 4 distinct blocks through its 2-block quota and must absorb its own
  // evictions; tenant 1 touches 2 blocks and evicts nothing.
  const auto result = sim.run(
      two_thread_trace({10, 11, 12, 13}, {30, 31}));
  ASSERT_EQ(result.tenants.size(), 2u);
  EXPECT_GT(result.tenants[0].io_evictions, 0u);
  EXPECT_EQ(result.tenants[1].io_evictions, 0u);
  EXPECT_EQ(result.tenants[0].io_evictions + result.tenants[1].io_evictions,
            result.io.evictions);
  EXPECT_LE(result.tenants[1].occupancy_peak, 4u);
}

TEST(SimulatorQosTest, DirtyBlockTrimmedByARebalanceIsWrittenBack) {
  // Tenant 0 writes blocks 10 and 11, then only re-reads 11; tenant 1
  // misses on every access. Once an epoch sees tenant 0 miss nothing, the
  // rebalance shrinks its 2-block I/O quota to 1 and trims block 10, its
  // LRU block. Tenant 0 never misses again, so that trim is the only way
  // block 10 leaves: written, it must be written back; read, it must not.
  const auto run = [](bool dynamic, bool writes) {
    TopologyConfig c = qos_config({1, 1});
    c.model_writes = true;
    c.qos.dynamic_shares = dynamic;
    c.qos.epoch_accesses = 8;
    HierarchySimulator sim(StorageTopology(c), PolicyKind::kLruInclusive,
                           {0, 0});
    sim.set_tenants({0, 1}, 2);
    TraceProgram trace;
    trace.file_blocks = {64};
    PhaseTrace phase;
    phase.per_thread.resize(2);
    phase.per_thread[0].push_back({0, 10, 1, writes});
    phase.per_thread[0].push_back({0, 11, 1, writes});
    for (int i = 0; i < 60; ++i) phase.per_thread[0].push_back({0, 11, 1});
    for (std::uint64_t b = 30; b < 50; ++b) {
      phase.per_thread[1].push_back({0, b, 1});
    }
    trace.phases.push_back(std::move(phase));
    return sim.run(trace);
  };
  const SimulationResult trimmed = run(true, true);
  ASSERT_EQ(trimmed.tenants.size(), 2u);
  EXPECT_EQ(trimmed.tenants[0].io_evictions, 1u);
  EXPECT_EQ(trimmed.writebacks, 1u);
  EXPECT_EQ(trimmed.disk_writes, 1u);
  const SimulationResult clean = run(true, false);
  EXPECT_EQ(clean.tenants[0].io_evictions, 1u);
  EXPECT_EQ(clean.writebacks, 0u);
  const SimulationResult kept = run(false, true);
  EXPECT_EQ(kept.tenants[0].io_evictions, 0u);
  EXPECT_EQ(kept.writebacks, 0u);
}

TEST(SimulatorQosTest, FewerSharesThanTenantsRejected) {
  const StorageTopology topo(qos_config({1}));
  HierarchySimulator sim(topo, PolicyKind::kLruInclusive, {0, 0});
  sim.set_tenants({0, 1}, 2);
  EXPECT_THROW(sim.run(two_thread_trace({1}, {2})), std::invalid_argument);
}

}  // namespace
}  // namespace flo::storage
