// Wire-format coverage for the sim-v5 revision (DESIGN.md §4k): the
// per-tenant QoS fields ride at the end of each tenant record, doubles
// stay C99 hexfloats (bit-exact round trips), lines of older versions and
// trailing fields are rejected.
#include "storage/stats.hpp"

#include <gtest/gtest.h>

#include <string>

namespace flo::storage {
namespace {

SimulationResult sample_result() {
  SimulationResult r;
  r.io = {100, 60, 40, 12, 40 * 2048};
  r.storage = {40, 10, 30, 3, 30 * 2048};
  r.exec_time = 0.1 + 0.2;  // not exactly representable: hexfloat territory
  r.thread_time = {0.3, 1.0 / 3.0};
  r.disk_reads = 30;
  r.accesses = 100;
  r.elements = 400;

  TenantStats t0;
  t0.accesses = 70;
  t0.elements = 280;
  t0.io_lookups = 70;
  t0.io_hits = 45;
  t0.busy_time = 2.0 / 7.0;
  t0.io_evictions = 9;
  t0.storage_evictions = 2;
  t0.occupancy_peak = 5;
  TenantStats t1;
  t1.accesses = 30;
  t1.io_lookups = 30;
  t1.io_hits = 15;
  t1.busy_time = 0.125;
  r.tenants = {t0, t1};
  return r;
}

/// Drops the last `n` space-separated tokens from a wire line.
std::string drop_tokens(std::string line, int n) {
  for (int i = 0; i < n; ++i) {
    line.resize(line.find_last_of(' '));
  }
  return line;
}

TEST(StatsWireTest, V5RoundTripIsBitExact) {
  const SimulationResult result = sample_result();
  const std::string wire = to_wire(result);
  EXPECT_EQ(wire.rfind("sim-v5 ", 0), 0u) << wire;
  const auto back = from_wire(wire);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, result);  // doubles included — hexfloats are lossless
  ASSERT_EQ(back->tenants.size(), 2u);
  EXPECT_EQ(back->tenants[0].io_evictions, 9u);
  EXPECT_EQ(back->tenants[0].storage_evictions, 2u);
  EXPECT_EQ(back->tenants[0].occupancy_peak, 5u);
  EXPECT_DOUBLE_EQ(back->tenants[0].busy_time, 2.0 / 7.0);
}

// sim-v1...sim-v4 lines are not read. Since sim-v5 every journal key
// carries the full topology, QoS fields included, so no older line can
// name a current cell; the engine recomputes an unparseable one.
TEST(StatsWireTest, PreV5LinesAreRejected) {
  SimulationResult result = sample_result();
  result.tenants.clear();
  const std::string v5 = to_wire(result);
  ASSERT_TRUE(from_wire(v5).has_value());
  const std::string body = v5.substr(std::string("sim-v5").size());
  // Each older tag over the exact body its version wrote: with no tenants
  // v4 equals v5; v3 had no tenant count, v2 no bound fields, and v1 no
  // queue fields (3 layers x waits/wait_time/depth).
  const struct {
    const char* tag;
    int dropped;
  } legacy[] = {{"sim-v4", 0}, {"sim-v3", 1}, {"sim-v2", 3}, {"sim-v1", 12}};
  for (const auto& version : legacy) {
    const std::string line = version.tag + drop_tokens(body, version.dropped);
    EXPECT_FALSE(from_wire(line).has_value()) << line;
  }
}

TEST(StatsWireTest, TrailingFieldsAreRejected) {
  const std::string wire = to_wire(sample_result());
  EXPECT_FALSE(from_wire(wire + " 7").has_value());
  // A v4-tagged line that still carries the v5 per-tenant fields has
  // three extra tokens per tenant — trailing garbage, rejected.
  std::string v4 = wire;
  v4.replace(0, 6, "sim-v4");
  EXPECT_FALSE(from_wire(v4).has_value());
}

TEST(StatsWireTest, SignedCountsAreRejected) {
  // io.lookups is the first count after the tag; a count is digits only,
  // so neither "-1" (which would wrap to 2^64 - 1) nor "+1" is read.
  const std::string wire = to_wire(sample_result());
  const std::size_t begin = wire.find(' ') + 1;
  const std::size_t end = wire.find(' ', begin);
  ASSERT_EQ(wire.substr(begin, end - begin), "100");
  for (const char* count : {"-1", "+1"}) {
    std::string line = wire;
    line.replace(begin, end - begin, count);
    EXPECT_FALSE(from_wire(line).has_value()) << line;
  }
}

TEST(StatsWireTest, TruncatedLinesAreRejectedNotCrashed) {
  const std::string wire = to_wire(sample_result());
  for (std::size_t cut = 0; cut < wire.size(); cut += 11) {
    EXPECT_FALSE(from_wire(wire.substr(0, cut)).has_value()) << cut;
  }
}

}  // namespace
}  // namespace flo::storage
