// Extent/per-block equivalence suite: an AccessEvent with run_blocks == m
// is DEFINED as the m per-block events {file, block + i, element_count,
// is_write}. The simulator's extent fast path must therefore produce a
// SimulationResult bit-identical (operator== is strict, doubles included)
// to servicing the expanded stream through the per-block reference path —
// across policies, cache configurations, writes, prefetch, striping, and
// fault injection.
#include <gtest/gtest.h>

#include <vector>

#include "storage/simulator.hpp"
#include "util/rng.hpp"

namespace flo::storage {
namespace {

TopologyConfig small_config() {
  TopologyConfig c;
  c.compute_nodes = 4;
  c.io_nodes = 2;
  c.storage_nodes = 2;  // striping splits runs across nodes
  c.block_size = 2048;
  c.io_cache_bytes = 6 * c.block_size;
  c.storage_cache_bytes = 10 * c.block_size;
  return c;
}

std::vector<NodeId> identity_io_mapping(const StorageTopology& topo) {
  std::vector<NodeId> out(topo.config().compute_nodes);
  for (NodeId c = 0; c < out.size(); ++c) out[c] = topo.io_node_of(c);
  return out;
}

/// Expands every extent into its defining per-block events.
TraceProgram expand(const TraceProgram& trace) {
  TraceProgram out;
  out.file_blocks = trace.file_blocks;
  for (const auto& phase : trace.phases) {
    PhaseTrace expanded;
    expanded.repeat = phase.repeat;
    expanded.per_thread.resize(phase.per_thread.size());
    for (std::size_t t = 0; t < phase.per_thread.size(); ++t) {
      for (const AccessEvent& ev : phase.per_thread[t]) {
        AccessEvent block = ev;
        block.run_blocks = 1;
        for (std::uint32_t i = 0; i < ev.run_blocks; ++i) {
          expanded.per_thread[t].push_back(block);
          ++block.block;
        }
      }
    }
    out.phases.push_back(std::move(expanded));
  }
  return out;
}

/// Random multi-thread trace mixing long sequential runs, short runs and
/// singles, with re-reads so caches actually hit.
TraceProgram random_trace(util::Rng& rng, std::size_t threads,
                          bool with_writes) {
  TraceProgram trace;
  trace.file_blocks = {96, 48};
  PhaseTrace phase;
  phase.repeat = 1 + static_cast<std::uint32_t>(rng.next_below(2));
  phase.per_thread.resize(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    const std::size_t events = 12 + rng.next_below(8);
    for (std::size_t i = 0; i < events; ++i) {
      AccessEvent ev;
      ev.file = static_cast<FileId>(rng.next_below(trace.file_blocks.size()));
      const std::uint64_t size = trace.file_blocks[ev.file];
      const std::uint32_t max_run =
          1 + static_cast<std::uint32_t>(rng.next_below(12));
      ev.block = rng.next_below(size - max_run);
      ev.run_blocks = max_run;
      ev.element_count = 1 + rng.next_below(4);
      ev.is_write = with_writes && rng.next_below(3) == 0;
      phase.per_thread[t].push_back(ev);
    }
  }
  trace.phases.push_back(std::move(phase));
  return trace;
}

/// The core property: batched-extent, split-extent, and expanded-per-block
/// simulations of the same logical stream agree exactly.
void expect_equivalent(const TopologyConfig& config, PolicyKind policy,
                       const TraceProgram& trace,
                       std::vector<RangeHint> hints = {}) {
  const StorageTopology topo(config);
  const TraceProgram per_block = expand(trace);

  // This suite is the clock core's extent-path contract: results must be
  // bit-identical, doubles included. The event core's staging (and its
  // analytic fast path's one-multiplication tail) legitimately re-associate
  // the FP sums, so every simulator here is pinned to the clock core; the
  // event-vs-clock envelope is checked separately (event_core_test.cpp and
  // the event-vs-clock fuzz oracle).
  HierarchySimulator reference(topo, policy, identity_io_mapping(topo), hints);
  reference.set_core(SimCoreKind::kClock);
  reference.set_extent_batching(false);
  const SimulationResult expected = reference.run(per_block);

  HierarchySimulator batched(topo, policy, identity_io_mapping(topo), hints);
  batched.set_core(SimCoreKind::kClock);
  batched.set_extent_batching(true);
  EXPECT_EQ(batched.run(trace), expected)
      << "extent batching diverged (policy " << static_cast<int>(policy)
      << ")";

  // Extent events with batching off exercise the scheduler's per-block
  // splitting alone.
  HierarchySimulator split(topo, policy, identity_io_mapping(topo), hints);
  split.set_core(SimCoreKind::kClock);
  split.set_extent_batching(false);
  EXPECT_EQ(split.run(trace), expected)
      << "extent splitting diverged (policy " << static_cast<int>(policy)
      << ")";
}

const PolicyKind kPolicies[] = {PolicyKind::kLruInclusive,
                                PolicyKind::kDemoteLru, PolicyKind::kKarma};

std::vector<RangeHint> karma_hints(const TraceProgram& trace) {
  std::vector<RangeHint> hints;
  for (FileId f = 0; f < trace.file_blocks.size(); ++f) {
    const std::uint64_t n = trace.file_blocks[f];
    hints.push_back({f, 0, n / 3, 8.0});
    hints.push_back({f, n / 3, 2 * n / 3, 2.0});
    hints.push_back({f, 2 * n / 3, n, 0.1});
  }
  return hints;
}

TEST(ExtentEquivalenceTest, AllPoliciesDefaultConfig) {
  for (const PolicyKind policy : kPolicies) {
    util::Rng rng(7001 + static_cast<std::uint64_t>(policy));
    for (int round = 0; round < 4; ++round) {
      const auto trace = random_trace(rng, 4, /*with_writes=*/false);
      expect_equivalent(small_config(), policy, trace,
                        policy == PolicyKind::kKarma
                            ? karma_hints(trace)
                            : std::vector<RangeHint>{});
    }
  }
}

TEST(ExtentEquivalenceTest, ModeledWrites) {
  TopologyConfig c = small_config();
  c.model_writes = true;
  for (const PolicyKind policy :
       {PolicyKind::kLruInclusive, PolicyKind::kDemoteLru}) {
    util::Rng rng(7101 + static_cast<std::uint64_t>(policy));
    for (int round = 0; round < 4; ++round) {
      expect_equivalent(c, policy, random_trace(rng, 4, /*with_writes=*/true));
    }
  }
}

TEST(ExtentEquivalenceTest, PrefetchEnabled) {
  TopologyConfig c = small_config();
  c.prefetch_depth = 2;
  util::Rng rng(7202);
  for (int round = 0; round < 4; ++round) {
    expect_equivalent(c, PolicyKind::kLruInclusive,
                      random_trace(rng, 4, false));
  }
}

TEST(ExtentEquivalenceTest, IoCacheDisabled) {
  TopologyConfig c = small_config();
  c.io_cache_enabled = false;
  util::Rng rng(7303);
  for (int round = 0; round < 4; ++round) {
    expect_equivalent(c, PolicyKind::kLruInclusive,
                      random_trace(rng, 4, false));
  }
}

TEST(ExtentEquivalenceTest, AllCachesDisabledStreamsFromDisk) {
  TopologyConfig c = small_config();
  c.io_cache_enabled = false;
  c.storage_cache_enabled = false;
  util::Rng rng(7404);
  for (int round = 0; round < 4; ++round) {
    expect_equivalent(c, PolicyKind::kLruInclusive,
                      random_trace(rng, 4, false));
  }
}

TEST(ExtentEquivalenceTest, CachelessSteadyStateSettlesDiskHeads) {
  // Single thread + no caches drives the bulk path's steady-state loop
  // (constant per-block transfer, heads settled per disk afterwards). The
  // scattered re-reads that follow each long run only cost the same as the
  // reference if every head landed exactly where per-block servicing would
  // have left it.
  TopologyConfig c = small_config();
  c.io_cache_enabled = false;
  c.storage_cache_enabled = false;
  TraceProgram trace;
  trace.file_blocks = {96, 48};
  PhaseTrace phase;
  phase.repeat = 2;
  phase.per_thread.resize(1);
  for (const auto& [file, block, run] :
       {std::tuple<FileId, std::uint64_t, std::uint32_t>{0, 0, 24},
        {0, 70, 1},   // scattered single: pays seeks set up by the run
        {1, 8, 17},   // odd-length run on the second file
        {0, 3, 24},   // re-scan overlapping the first run
        {1, 40, 5}}) {
    AccessEvent ev;
    ev.file = file;
    ev.block = block;
    ev.run_blocks = run;
    ev.element_count = 3;
    phase.per_thread[0].push_back(ev);
  }
  trace.phases.push_back(std::move(phase));
  expect_equivalent(c, PolicyKind::kLruInclusive, trace);
}

TEST(ExtentEquivalenceTest, FaultInjectionForcesReferencePath) {
  TopologyConfig c = small_config();
  c.fault.enabled = true;
  c.fault.seed = 99;
  c.fault.storage_transient_rate = 0.05;
  c.fault.disk_transient_rate = 0.05;
  c.fault.slow_disk_rate = 0.1;
  c.fault.outages.push_back({FaultLayer::kIo, 0, 0.0, 0.5});
  util::Rng rng(7505);
  for (int round = 0; round < 3; ++round) {
    expect_equivalent(c, PolicyKind::kLruInclusive,
                      random_trace(rng, 4, false));
  }
}

TEST(ExtentEquivalenceTest, SingleThreadLongResidentRuns) {
  // Re-reading the same long run back to back drives the bulk I/O-hit
  // path through full-length resident runs (warm after the first pass).
  TraceProgram trace;
  trace.file_blocks = {64};
  PhaseTrace phase;
  phase.per_thread.resize(1);
  for (int pass = 0; pass < 3; ++pass) {
    AccessEvent ev;
    ev.block = 0;
    ev.run_blocks = 5;  // fits the 6-block I/O cache
    ev.element_count = 2;
    phase.per_thread[0].push_back(ev);
  }
  trace.phases.push_back(std::move(phase));
  expect_equivalent(small_config(), PolicyKind::kLruInclusive, trace);
}

TEST(ExtentEquivalenceTest, TwoThreadsInterleaveMidRun) {
  // Identical clocks force the scheduler's id tiebreak and make threads
  // yield to each other mid-extent: the budget cut must split the runs
  // exactly where per-block scheduling would.
  TraceProgram trace;
  trace.file_blocks = {64};
  PhaseTrace phase;
  phase.per_thread.resize(2);
  for (std::uint32_t t = 0; t < 2; ++t) {
    AccessEvent warm;
    warm.block = t * 6;
    warm.run_blocks = 6;
    phase.per_thread[t].push_back(warm);
    AccessEvent reread = warm;
    phase.per_thread[t].push_back(reread);
  }
  trace.phases.push_back(std::move(phase));
  expect_equivalent(small_config(), PolicyKind::kLruInclusive, trace);
}

TEST(ExtentEquivalenceTest, RunBlocksZeroDegradesToSingleBlock) {
  TraceProgram zero;
  zero.file_blocks = {16};
  PhaseTrace phase;
  phase.per_thread.resize(1);
  AccessEvent ev;
  ev.block = 3;
  ev.run_blocks = 0;  // invalid by contract; must behave as one block
  phase.per_thread[0].push_back(ev);
  zero.phases.push_back(std::move(phase));

  TraceProgram one = zero;
  one.phases[0].per_thread[0][0].run_blocks = 1;

  const StorageTopology topo(small_config());
  HierarchySimulator a(topo, PolicyKind::kLruInclusive,
                       identity_io_mapping(topo));
  HierarchySimulator b(topo, PolicyKind::kLruInclusive,
                       identity_io_mapping(topo));
  EXPECT_EQ(a.run(zero), b.run(one));
}

}  // namespace
}  // namespace flo::storage
