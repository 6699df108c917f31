// Golden request-path matrix: pins the exact SimulationResult of both
// simulator cores over every policy and every request-path feature, not
// only the single-thread, fault-free, prefetch-free envelope in which the
// event core is held to the clock core.
//
// Each policy runs a seeded matrix of small simulations: both cores x
// {1, 4} threads x cache modes x prefetch {0, 2} x modelled writes x
// faults (transient failures, slow disks, an I/O and a storage outage) x
// QoS modes with tenants. Every cell's to_wire line (hexfloat doubles, so
// every bit of every clock counts) is folded into one FNV-1a digest per
// (policy, core, threads) group. The expected digests were recorded from
// the code that introduced this test; any change to a charged time, a
// counter, an eviction order or a fault draw moves at least one of them.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "storage/simulator.hpp"
#include "util/rng.hpp"

namespace flo::storage {
namespace {

enum class CacheMode { kBoth, kIoOnly, kStorageOnly, kNone };
enum class QosMode { kNone, kTenants, kStatic, kDynamic, kPriority };

constexpr CacheMode kCacheModes[] = {CacheMode::kBoth, CacheMode::kIoOnly,
                                     CacheMode::kStorageOnly, CacheMode::kNone};
constexpr QosMode kQosModes[] = {QosMode::kNone, QosMode::kTenants,
                                 QosMode::kStatic, QosMode::kDynamic,
                                 QosMode::kPriority};

/// Seeded multi-phase trace: a mix of single blocks and sequential runs
/// (so readahead streams form and break) over three files, with a quarter
/// of the events flagged as writes.
TraceProgram golden_trace(std::uint32_t threads, std::uint64_t seed) {
  util::Rng rng(0x601DE5EEDull + seed);
  TraceProgram trace;
  trace.file_blocks = {160, 96, 64};
  for (std::uint32_t p = 0; p < 2; ++p) {
    PhaseTrace phase;
    phase.repeat = p == 0 ? 2 : 1;
    phase.per_thread.resize(threads);
    for (std::uint32_t t = 0; t < threads; ++t) {
      for (int i = 0; i < 40; ++i) {
        AccessEvent ev;
        ev.file = static_cast<FileId>(rng.next_below(3));
        const std::uint64_t span = rng.next_below(2) == 0 ? 2 : 20;
        ev.run_blocks = static_cast<std::uint32_t>(1 + rng.next_below(span));
        ev.block =
            rng.next_below(trace.file_blocks[ev.file] - ev.run_blocks + 1);
        ev.element_count = 1 + rng.next_below(4);
        ev.is_write = rng.next_below(4) == 0;
        phase.per_thread[t].push_back(ev);
      }
    }
    trace.phases.push_back(std::move(phase));
  }
  return trace;
}

/// KARMA range classes: the I/O level, the storage level and uncached
/// ranges all appear (aggregate capacities 24 and 48 blocks).
std::vector<RangeHint> golden_hints() {
  return {{0, 0, 16, 8.0}, {1, 0, 40, 4.0}, {2, 0, 64, 2.0}, {0, 16, 24, 1.0}};
}

TopologyConfig golden_config(CacheMode caches, std::uint32_t prefetch,
                             bool writes, bool faults, QosMode qos,
                             std::uint64_t seed) {
  TopologyConfig c;
  c.compute_nodes = 4;
  c.io_nodes = 2;
  c.storage_nodes = 2;
  c.block_size = 2048;
  c.io_cache_bytes = 12 * c.block_size;
  c.storage_cache_bytes = 24 * c.block_size;
  c.io_cache_enabled =
      caches == CacheMode::kBoth || caches == CacheMode::kIoOnly;
  c.storage_cache_enabled =
      caches == CacheMode::kBoth || caches == CacheMode::kStorageOnly;
  c.prefetch_depth = prefetch;
  c.model_writes = writes;
  if (faults) {
    c.fault.enabled = true;
    c.fault.seed = seed;
    c.fault.storage_transient_rate = 0.15;
    c.fault.disk_transient_rate = 0.1;
    c.fault.max_retries = 2;
    c.fault.retry_backoff = 1e-4;
    c.fault.slow_disk_rate = 0.05;
    c.fault.outages.push_back({FaultLayer::kIo, 1, 0.02, 0.12});
    c.fault.outages.push_back({FaultLayer::kStorage, 0, 0.05, 0.2});
  }
  switch (qos) {
    case QosMode::kNone:
    case QosMode::kTenants:
      break;
    case QosMode::kStatic:
      c.qos.enabled = true;
      c.qos.shares = {3, 1};
      c.qos.scheduler = SchedPolicyKind::kFcfs;
      break;
    case QosMode::kDynamic:
      c.qos.enabled = true;
      c.qos.shares = {1, 1};
      c.qos.dynamic_shares = true;
      c.qos.epoch_accesses = 48;
      break;
    case QosMode::kPriority:
      c.qos.enabled = true;
      c.qos.priorities = {4, 1};
      c.qos.scheduler = SchedPolicyKind::kPriority;
      c.qos.sched_window = 5e-3;
      break;
  }
  return c;
}

std::uint64_t fnv1a(std::uint64_t h, const std::string& bytes) {
  for (unsigned char ch : bytes) {
    h ^= ch;
    h *= 0x100000001B3ull;
  }
  return h;
}

/// Digest of every cell of one (policy, core, threads) group. Each cell
/// draws its own trace and fault stream, so no two cells repeat a result.
/// Two tenants share the caches: threads {0, 1} and {2, 3}, or one thread
/// beside a tenant that never issues.
std::uint64_t group_digest(PolicyKind policy, SimCoreKind core,
                           std::uint32_t threads) {
  std::vector<NodeId> io_of_thread;
  std::vector<std::uint32_t> tenant_of_thread;
  for (std::uint32_t t = 0; t < threads; ++t) {
    io_of_thread.push_back(t / 2);
    tenant_of_thread.push_back(t / 2);
  }
  std::uint64_t h = 0xCBF29CE484222325ull;
  std::uint64_t cell = 0;
  for (CacheMode caches : kCacheModes) {
    for (std::uint32_t prefetch : {0u, 2u}) {
      for (bool writes : {false, true}) {
        for (bool faults : {false, true}) {
          for (QosMode qos : kQosModes) {
            const std::uint64_t seed = threads * 1000 + cell++;
            const StorageTopology topo(
                golden_config(caches, prefetch, writes, faults, qos, seed));
            HierarchySimulator sim(topo, policy, io_of_thread,
                                   golden_hints());
            sim.set_core(core);
            if (qos != QosMode::kNone) sim.set_tenants(tenant_of_thread, 2);
            h = fnv1a(h, to_wire(sim.run(golden_trace(threads, seed))));
            h = fnv1a(h, "\n");
          }
        }
      }
    }
  }
  return h;
}

struct Golden {
  SimCoreKind core;
  std::uint32_t threads;
  std::uint64_t digest;
};

void expect_goldens(PolicyKind policy, const std::vector<Golden>& goldens) {
  for (const Golden& g : goldens) {
    const std::uint64_t got = group_digest(policy, g.core, g.threads);
    EXPECT_EQ(got, g.digest)
        << policy_name(policy) << ", " << sim_core_name(g.core) << " core, "
        << g.threads << " thread(s): digest 0x" << std::hex << got;
  }
}

TEST(RequestPathGoldenTest, LruInclusive) {
  expect_goldens(PolicyKind::kLruInclusive,
                 {{SimCoreKind::kClock, 1, 0x7e4faa89bdfbc900ull},
                  {SimCoreKind::kClock, 4, 0x66b6dc45682cb542ull},
                  {SimCoreKind::kEvent, 1, 0xace7b927acf2a604ull},
                  {SimCoreKind::kEvent, 4, 0x7f2652defb5057a9ull}});
}

TEST(RequestPathGoldenTest, DemoteLru) {
  expect_goldens(PolicyKind::kDemoteLru,
                 {{SimCoreKind::kClock, 1, 0x2761daf4f0f7612dull},
                  {SimCoreKind::kClock, 4, 0x5331815870314a69ull},
                  {SimCoreKind::kEvent, 1, 0xf40f69cf6d27e903ull},
                  {SimCoreKind::kEvent, 4, 0x5f7da4ea50f68cb7ull}});
}

TEST(RequestPathGoldenTest, Karma) {
  expect_goldens(PolicyKind::kKarma,
                 {{SimCoreKind::kClock, 1, 0xb6ac63a2bf987576ull},
                  {SimCoreKind::kClock, 4, 0xd31e9d7e44042493ull},
                  {SimCoreKind::kEvent, 1, 0x262ef142e0d58353ull},
                  {SimCoreKind::kEvent, 4, 0x7b7d5adb440b4192ull}});
}

}  // namespace
}  // namespace flo::storage
