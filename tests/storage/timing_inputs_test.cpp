// Timing inputs must be finite and non-negative. Both simulator cores
// order virtual clocks by the bits of their packed scheduler keys
// (storage/packed_heap.hpp), which matches `<` only for non-negative
// numbers, so every place a timing value enters the simulator rejects a
// negative, NaN or infinite one — with checks written so that NaN, which
// fails every comparison, fails them too.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

#include "storage/disk_model.hpp"
#include "storage/event_queue.hpp"
#include "storage/fault_model.hpp"
#include "storage/network_model.hpp"
#include "storage/topology.hpp"

namespace flo::storage {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TopologyConfig small_config() {
  TopologyConfig c;
  c.compute_nodes = 4;
  c.io_nodes = 2;
  c.storage_nodes = 1;
  c.block_size = 64;
  c.io_cache_bytes = 8 * c.block_size;
  c.storage_cache_bytes = 16 * c.block_size;
  return c;
}

TEST(TimingInputsTest, FaultConfigRejectsNanAndInfinity) {
  const auto rejects = [](auto&& edit) {
    FaultConfig c;
    c.enabled = true;
    edit(c);
    return [c] { c.validate(); };
  };
  for (const double bad : {kNan, -kInf, kInf}) {
    SCOPED_TRACE(bad);
    EXPECT_THROW(rejects([&](FaultConfig& c) {
                   c.storage_transient_rate = bad;
                 })(),
                 std::invalid_argument);
    EXPECT_THROW(rejects([&](FaultConfig& c) {
                   c.disk_transient_rate = bad;
                 })(),
                 std::invalid_argument);
    EXPECT_THROW(rejects([&](FaultConfig& c) { c.slow_disk_rate = bad; })(),
                 std::invalid_argument);
    EXPECT_THROW(
        rejects([&](FaultConfig& c) { c.slow_disk_multiplier = bad; })(),
        std::invalid_argument);
    EXPECT_THROW(rejects([&](FaultConfig& c) { c.retry_backoff = bad; })(),
                 std::invalid_argument);
    EXPECT_THROW(rejects([&](FaultConfig& c) {
                   c.outages.push_back({FaultLayer::kIo, 0, bad, 1.0});
                 })(),
                 std::invalid_argument);
    EXPECT_THROW(rejects([&](FaultConfig& c) {
                   c.outages.push_back({FaultLayer::kIo, 0, 0.0, bad});
                 })(),
                 std::invalid_argument);
  }
  // A negative outage start is rejected like a negative backoff.
  EXPECT_THROW(rejects([](FaultConfig& c) {
                 c.outages.push_back({FaultLayer::kIo, 0, -0.5, 1.0});
               })(),
               std::invalid_argument);
  // The edges of each range stay legal.
  EXPECT_NO_THROW(rejects([](FaultConfig& c) {
                    c.storage_transient_rate = 1;
                    c.disk_transient_rate = 0;
                    c.slow_disk_multiplier = 1;
                    c.retry_backoff = 0;
                    c.outages.push_back({FaultLayer::kIo, 0, 0.0, 0.0});
                  })());
}

TEST(TimingInputsTest, FaultSpecRejectsNanValues) {
  // std::stod reads "nan" and "inf"; validation must refuse them rather
  // than run with NaN times or silently with no faults at all.
  EXPECT_THROW(parse_fault_spec("backoff=nan,transient=0.5"),
               std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("transient=nan"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("slow=0.1,slow-mult=nan"),
               std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("backoff=inf"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("outage=io:0:nan:1"), std::invalid_argument);
  EXPECT_THROW(parse_fault_spec("backoff=-1"), std::invalid_argument);
}

TEST(TimingInputsTest, TopologyRejectsBadLatencies) {
  const std::vector<double LatencyModel::*> fields = {
      &LatencyModel::cpu_per_element, &LatencyModel::net_compute_io,
      &LatencyModel::io_cache_hit,    &LatencyModel::net_io_storage,
      &LatencyModel::storage_cache_hit, &LatencyModel::demotion_cost};
  for (const auto field : fields) {
    for (const double bad : {-1e-6, kNan, kInf}) {
      TopologyConfig c = small_config();
      c.latency.*field = bad;
      EXPECT_THROW(StorageTopology{c}, std::invalid_argument) << bad;
    }
    TopologyConfig zero = small_config();
    zero.latency.*field = 0;
    EXPECT_NO_THROW(StorageTopology{zero});
  }
}

TEST(TimingInputsTest, TopologyRejectsBadSeekTimes) {
  for (const double bad : {-1e-3, kNan, kInf}) {
    TopologyConfig c = small_config();
    c.disk.min_seek = bad;
    EXPECT_THROW(StorageTopology{c}, std::invalid_argument) << bad;
    c = small_config();
    c.disk.max_seek = bad;
    EXPECT_THROW(StorageTopology{c}, std::invalid_argument) << bad;
  }
}

TEST(TimingInputsTest, FaultsInTopologyAreValidated) {
  TopologyConfig c = small_config();
  c.fault.enabled = true;
  c.fault.retry_backoff = kNan;
  EXPECT_THROW(StorageTopology{c}, std::invalid_argument);
}

TEST(TimingInputsTest, DiskArrayRejectsNanAndInfiniteBandwidth) {
  for (const double bad : {kNan, kInf, -kInf, -1.0}) {
    DiskModel model;
    model.bandwidth = bad;
    EXPECT_THROW(DiskArray(1, model, 2048), std::invalid_argument) << bad;
  }
}

TEST(TimingInputsTest, NetworkModelRejectsNanAndInfiniteBandwidth) {
  for (const double bad : {kNan, kInf, 0.0}) {
    EXPECT_THROW(NetworkModel(LatencyModel{}, 2048, bad),
                 std::invalid_argument)
        << bad;
  }
}

TEST(TimingInputsTest, EventQueueRejectsNanTime) {
  // A NaN time would pass a `time < now` check; the queue's monotonicity
  // check is written so NaN fails it.
  EventQueue q;
  EXPECT_THROW(q.push(kNan, EventKind::kThreadIssue, 0), std::logic_error);
  q.push(1.0, EventKind::kThreadIssue, 0);
  (void)q.pop();
  EXPECT_THROW(q.push(kNan, EventKind::kIoArrive, 0), std::logic_error);
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace flo::storage
