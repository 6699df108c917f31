#include "storage/fault_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "storage/simulator.hpp"
#include "storage/stats.hpp"

namespace flo::storage {
namespace {

TopologyConfig tiny_config(std::size_t io_blocks = 4,
                           std::size_t storage_blocks = 8) {
  TopologyConfig c;
  c.compute_nodes = 4;
  c.io_nodes = 2;
  c.storage_nodes = 1;
  c.block_size = 2048;
  c.io_cache_bytes = io_blocks * c.block_size;
  c.storage_cache_bytes = storage_blocks * c.block_size;
  return c;
}

std::vector<NodeId> identity_io_mapping(const StorageTopology& topo) {
  std::vector<NodeId> out(topo.config().compute_nodes);
  for (NodeId c = 0; c < out.size(); ++c) out[c] = topo.io_node_of(c);
  return out;
}

TraceProgram single_thread_trace(std::vector<std::uint64_t> blocks,
                                 std::uint64_t file_blocks = 64) {
  TraceProgram trace;
  trace.file_blocks = {file_blocks};
  PhaseTrace phase;
  phase.per_thread.resize(1);
  for (std::uint64_t b : blocks) phase.per_thread[0].push_back({0, b, 1});
  trace.phases.push_back(std::move(phase));
  return trace;
}

TEST(FaultSpecTest, ParsesFullSpec) {
  const FaultConfig c = parse_fault_spec(
      "seed=7,transient=0.05,retries=3,backoff=2e-3,slow=0.1,slow-mult=4,"
      "outage=io:1:0.5:1.5,outage=storage:0:2:3");
  EXPECT_TRUE(c.enabled);
  EXPECT_EQ(c.seed, 7u);
  EXPECT_DOUBLE_EQ(c.storage_transient_rate, 0.05);
  EXPECT_DOUBLE_EQ(c.disk_transient_rate, 0.05);
  EXPECT_EQ(c.max_retries, 3u);
  EXPECT_DOUBLE_EQ(c.retry_backoff, 2e-3);
  EXPECT_DOUBLE_EQ(c.slow_disk_rate, 0.1);
  EXPECT_DOUBLE_EQ(c.slow_disk_multiplier, 4.0);
  ASSERT_EQ(c.outages.size(), 2u);
  EXPECT_EQ(c.outages[0].layer, FaultLayer::kIo);
  EXPECT_EQ(c.outages[0].node, 1u);
  EXPECT_EQ(c.outages[1].layer, FaultLayer::kStorage);
  EXPECT_DOUBLE_EQ(c.outages[1].start, 2.0);
}

TEST(FaultSpecTest, SeparateLayerRatesOverrideTransient) {
  const FaultConfig c =
      parse_fault_spec("transient=0.1,disk-transient=0.2,storage-transient=0");
  EXPECT_DOUBLE_EQ(c.disk_transient_rate, 0.2);
  EXPECT_DOUBLE_EQ(c.storage_transient_rate, 0.0);
}

TEST(FaultSpecTest, EmptySpecIsDisabled) {
  EXPECT_FALSE(parse_fault_spec("").enabled);
}

TEST(FaultSpecTest, MalformedSpecsThrow) {
  EXPECT_THROW(parse_fault_spec("transient=lots"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("nonsense=1"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("outage=disk:0:0:1"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("outage=io:0:1"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("transient"), std::invalid_argument);
}

TEST(FaultConfigTest, ValidateRejectsOutOfRangeKnobs) {
  FaultConfig c;
  c.enabled = true;
  c.storage_transient_rate = 1.5;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = FaultConfig{};
  c.slow_disk_multiplier = 0.5;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = FaultConfig{};
  c.retry_backoff = -1;
  EXPECT_THROW(c.validate(), std::invalid_argument);
  c = FaultConfig{};
  c.outages.push_back({FaultLayer::kIo, 0, 2.0, 1.0});
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(FaultConfigTest, TopologyRejectsOutOfRangeOutageNode) {
  TopologyConfig c = tiny_config();
  c.fault.enabled = true;
  c.fault.outages.push_back({FaultLayer::kStorage, 5, 0.0, 1.0});
  EXPECT_THROW(StorageTopology{c}, std::invalid_argument);
}

TEST(FaultPlanTest, DecisionStreamIsSeededAndReplayable) {
  FaultConfig config;
  config.enabled = true;
  config.disk_transient_rate = 0.5;
  FaultPlan a(config);
  FaultPlan b(config);
  std::vector<bool> first;
  for (int i = 0; i < 64; ++i) first.push_back(a.disk_read_fails());
  for (int i = 0; i < 64; ++i) EXPECT_EQ(b.disk_read_fails(), first[i]);
  a.reset();
  for (int i = 0; i < 64; ++i) EXPECT_EQ(a.disk_read_fails(), first[i]);
  // A rate of 0.5 over 64 draws fires at least once either way.
  EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
  EXPECT_NE(std::count(first.begin(), first.end(), false), 0);
}

TEST(FaultPlanTest, CategoriesDrawIndependently) {
  FaultConfig config;
  config.enabled = true;
  config.disk_transient_rate = 0.5;
  config.storage_transient_rate = 0.5;
  FaultPlan interleaved(config);
  FaultPlan disk_only(config);
  // Interleaving storage draws must not shift the disk stream.
  std::vector<bool> a, b;
  for (int i = 0; i < 32; ++i) {
    interleaved.storage_read_fails();
    a.push_back(interleaved.disk_read_fails());
    b.push_back(disk_only.disk_read_fails());
  }
  EXPECT_EQ(a, b);
}

TEST(FaultPlanTest, BackoffDoublesAndSaturates) {
  FaultConfig config;
  config.retry_backoff = 1e-3;
  FaultPlan plan(config);
  EXPECT_DOUBLE_EQ(plan.backoff(0), 1e-3);
  EXPECT_DOUBLE_EQ(plan.backoff(1), 2e-3);
  EXPECT_DOUBLE_EQ(plan.backoff(3), 8e-3);
  // Huge attempt numbers must not overflow the shift.
  EXPECT_GT(plan.backoff(200), 0);
}

// Acceptance: a disabled (or zero-rate) fault config leaves simulation
// results bitwise identical to the pre-fault baseline.
TEST(FaultSimulationTest, DisabledFaultsAreByteIdentical) {
  const auto trace = single_thread_trace({1, 2, 3, 1, 2, 3, 9, 1});
  const StorageTopology baseline(tiny_config());

  TopologyConfig disabled_cfg = tiny_config();
  disabled_cfg.fault.seed = 7;  // differing knobs, master switch off
  disabled_cfg.fault.storage_transient_rate = 1.0;
  disabled_cfg.fault.enabled = false;

  TopologyConfig zero_cfg = tiny_config();
  zero_cfg.fault.enabled = true;  // enabled but nothing can fire

  for (const auto policy :
       {PolicyKind::kLruInclusive, PolicyKind::kDemoteLru, PolicyKind::kKarma}) {
    HierarchySimulator base(baseline, policy, identity_io_mapping(baseline));
    const auto expect = base.run(trace);
    const StorageTopology disabled(disabled_cfg);
    HierarchySimulator off(disabled, policy, identity_io_mapping(disabled));
    EXPECT_EQ(off.run(trace), expect) << "disabled faults, policy "
                                      << static_cast<int>(policy);
    const StorageTopology zero(zero_cfg);
    HierarchySimulator none(zero, policy, identity_io_mapping(zero));
    EXPECT_EQ(none.run(trace), expect) << "zero-rate faults, policy "
                                       << static_cast<int>(policy);
    EXPECT_FALSE(none.run(trace).faults.any());
  }
}

TEST(FaultSimulationTest, TransientFailuresChargeRetriesAndBackoff) {
  TopologyConfig cfg = tiny_config();
  cfg.fault.enabled = true;
  cfg.fault.disk_transient_rate = 1.0;  // every attempt fails
  cfg.fault.max_retries = 2;
  const StorageTopology topo(cfg);
  HierarchySimulator sim(topo, PolicyKind::kLruInclusive,
                         identity_io_mapping(topo));
  const auto faulted = sim.run(single_thread_trace({1, 2, 3}));

  const StorageTopology clean(tiny_config());
  HierarchySimulator base(clean, PolicyKind::kLruInclusive,
                          identity_io_mapping(clean));
  const auto expect = base.run(single_thread_trace({1, 2, 3}));

  EXPECT_GT(faulted.faults.disk.transient_failures, 0u);
  EXPECT_EQ(faulted.faults.exhausted_retries, 3u);  // one per disk read
  EXPECT_GT(faulted.faults.disk.degraded_time, 0.0);
  EXPECT_GT(faulted.exec_time, expect.exec_time);
  // Cache behaviour (hits/misses) is unchanged — only time degrades.
  EXPECT_EQ(faulted.io.hits, expect.io.hits);
  EXPECT_EQ(faulted.disk_reads, expect.disk_reads);
}

TEST(FaultSimulationTest, SlowDiskMultipliesServiceTime) {
  TopologyConfig cfg = tiny_config();
  cfg.fault.enabled = true;
  cfg.fault.slow_disk_rate = 1.0;
  cfg.fault.slow_disk_multiplier = 8.0;
  const StorageTopology topo(cfg);
  HierarchySimulator sim(topo, PolicyKind::kLruInclusive,
                         identity_io_mapping(topo));
  const auto result = sim.run(single_thread_trace({1, 2, 3}));
  EXPECT_EQ(result.faults.disk.slow_services, result.disk_reads);
  EXPECT_GT(result.faults.disk.degraded_time, 0.0);
}

TEST(FaultSimulationTest, StorageOutageBypassesCache) {
  // Re-touching 1 after eviction from the 2-deep I/O cache would hit the
  // inclusive storage cache — but that cache is dark the whole run.
  TopologyConfig cfg = tiny_config(/*io_blocks=*/2);
  cfg.fault.enabled = true;
  cfg.fault.outages.push_back({FaultLayer::kStorage, 0, 0.0, 1e9});
  const StorageTopology topo(cfg);
  HierarchySimulator sim(topo, PolicyKind::kLruInclusive,
                         identity_io_mapping(topo));
  const auto result = sim.run(single_thread_trace({1, 2, 3, 1}));
  EXPECT_EQ(result.storage.lookups, 0u);
  EXPECT_GT(result.faults.storage.bypasses, 0u);
  EXPECT_EQ(result.disk_reads, 4u);  // every miss goes to disk
}

TEST(FaultSimulationTest, IoOutageBypassesIoCache) {
  TopologyConfig cfg = tiny_config();
  cfg.fault.enabled = true;
  cfg.fault.outages.push_back({FaultLayer::kIo, 0, 0.0, 1e9});
  cfg.fault.outages.push_back({FaultLayer::kIo, 1, 0.0, 1e9});
  const StorageTopology topo(cfg);
  HierarchySimulator sim(topo, PolicyKind::kLruInclusive,
                         identity_io_mapping(topo));
  const auto result = sim.run(single_thread_trace({1, 1, 1}));
  EXPECT_EQ(result.io.lookups, 0u);
  EXPECT_EQ(result.faults.io.bypasses, 3u);
  // The storage level still serves re-accesses.
  EXPECT_EQ(result.storage.hits, 2u);
}

TEST(FaultSimulationTest, RepeatedRunsReplayIdenticalFaults) {
  TopologyConfig cfg = tiny_config();
  cfg.fault.enabled = true;
  cfg.fault.disk_transient_rate = 0.3;
  cfg.fault.slow_disk_rate = 0.3;
  const StorageTopology topo(cfg);
  HierarchySimulator sim(topo, PolicyKind::kLruInclusive,
                         identity_io_mapping(topo));
  const auto trace = single_thread_trace({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  const auto first = sim.run(trace);
  EXPECT_EQ(sim.run(trace), first);
  HierarchySimulator fresh(topo, PolicyKind::kLruInclusive,
                           identity_io_mapping(topo));
  EXPECT_EQ(fresh.run(trace), first);
}

TEST(WireCodecTest, RoundTripsBitExactly) {
  TopologyConfig cfg = tiny_config();
  cfg.fault.enabled = true;
  cfg.fault.disk_transient_rate = 0.3;
  const StorageTopology topo(cfg);
  HierarchySimulator sim(topo, PolicyKind::kLruInclusive,
                         identity_io_mapping(topo));
  const auto result = sim.run(single_thread_trace({1, 2, 3, 4, 5, 1, 2}));
  const auto decoded = from_wire(to_wire(result));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, result);  // bitwise-strict, doubles included
}

TEST(WireCodecTest, RejectsMalformedLines) {
  EXPECT_FALSE(from_wire("").has_value());
  EXPECT_FALSE(from_wire("not-a-result 1 2 3").has_value());
  EXPECT_FALSE(from_wire("sim-v1 1 2").has_value());
  const std::string good = to_wire(SimulationResult{});
  EXPECT_TRUE(from_wire(good).has_value());
  EXPECT_FALSE(from_wire(good + " 7").has_value());  // trailing fields
}

TEST(WireCodecTest, TenantSlicesRoundTripInV5) {
  SimulationResult result;
  result.accesses = 10;
  result.exec_time = 1.25;
  result.tenants.resize(2);
  result.tenants[0].accesses = 6;
  result.tenants[0].io_lookups = 6;
  result.tenants[0].io_hits = 4;
  result.tenants[0].bytes_filled = 4096;
  result.tenants[0].busy_time = 0.75;
  result.tenants[1].accesses = 4;
  result.tenants[1].disk_reads = 2;
  result.tenants[1].busy_time = 0.5;
  const std::string wire = to_wire(result);
  EXPECT_EQ(wire.rfind("sim-v5", 0), 0u);
  const auto decoded = from_wire(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, result);
  ASSERT_EQ(decoded->tenants.size(), 2u);
  EXPECT_EQ(decoded->tenants[1].disk_reads, 2u);
}

TEST(WireCodecTest, OlderVersionsParseWithTenantsEmpty) {
  // A v1–v3 line is exactly a v4 line with an older tag and without the
  // trailing tenant fields (the v1/v2 cases additionally drop queue/bound
  // fields, handled by the version cascade).
  const std::string v4 = to_wire(SimulationResult{});
  ASSERT_EQ(v4.substr(v4.size() - 2), " 0");  // tenant count
  const std::string v3 = "sim-v3" + v4.substr(6, v4.size() - 8);
  const auto decoded = from_wire(v3);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->tenants.empty());
  EXPECT_EQ(*decoded, SimulationResult{});
  // A v3 line must not accept tenant fields.
  EXPECT_FALSE(from_wire(v3 + " 0").has_value());
}

TEST(WireCodecTest, RejectsAbsurdTenantCounts) {
  const std::string v4 = to_wire(SimulationResult{});
  const std::string huge =
      v4.substr(0, v4.size() - 1) + std::to_string(1u << 20);
  EXPECT_FALSE(from_wire(huge).has_value());
}

}  // namespace
}  // namespace flo::storage
