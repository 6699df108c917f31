// compute_io_lower_bound against a plain std::set model of the same
// counting rules (core/io_lower_bound.hpp): compulsory fills per I/O cache,
// repetition pressure beyond capacity, and the global footprint at the
// storage layer. The bound pass keeps its bitsets in 32,768-block pages
// allocated on first touch and sweeps only the pages a phase touched, so
// the random traces here put extents across page boundaries and revisit
// pages in later phases, and one case declares a file far too large for
// any dense bitset.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "core/io_lower_bound.hpp"
#include "storage/topology.hpp"
#include "storage/trace_source.hpp"
#include "util/rng.hpp"

namespace flo::core {
namespace {

constexpr std::uint64_t kPage = 32768;  // blocks per bitset page

storage::StorageTopology topology(std::size_t io_nodes,
                                  std::uint64_t io_cache_blocks,
                                  bool io_cache = true,
                                  bool storage_cache = true) {
  storage::TopologyConfig c;
  c.compute_nodes = io_nodes;
  c.io_nodes = io_nodes;
  c.storage_nodes = 1;
  c.block_size = 64;
  c.io_cache_bytes = io_cache_blocks * c.block_size;
  c.storage_cache_bytes = 16 * c.block_size;
  c.io_cache_enabled = io_cache;
  c.storage_cache_enabled = storage_cache;
  return storage::StorageTopology(c);
}

/// The counting rules of compute_io_lower_bound over std::set, block by
/// block, for a policy whose layers both make a claim when enabled.
IoBound reference_bound(const storage::TraceProgram& trace,
                        const std::vector<storage::NodeId>& io_node_of_thread,
                        const storage::StorageTopology& topo) {
  const storage::TopologyConfig& cfg = topo.config();
  std::vector<std::uint64_t> offset;
  std::uint64_t total = 0;
  for (const std::uint64_t blocks : trace.file_blocks) {
    offset.push_back(total);
    total += blocks;
  }
  std::vector<std::set<std::uint64_t>> ever(cfg.io_nodes);
  std::set<std::uint64_t> touched;
  std::uint64_t io_blocks = 0;
  for (const storage::PhaseTrace& phase : trace.phases) {
    std::vector<std::set<std::uint64_t>> seen(cfg.io_nodes);
    for (std::size_t t = 0; t < phase.per_thread.size(); ++t) {
      for (const storage::AccessEvent& ev : phase.per_thread[t]) {
        for (std::uint64_t i = 0; i < ev.run_blocks; ++i) {
          const std::uint64_t block = offset[ev.file] + ev.block + i;
          seen[io_node_of_thread[t]].insert(block);
          touched.insert(block);
        }
      }
    }
    for (std::size_t c = 0; c < cfg.io_nodes; ++c) {
      for (const std::uint64_t block : seen[c]) {
        io_blocks += ever[c].insert(block).second ? 1 : 0;
      }
      const std::uint64_t capacity = topo.io_cache_blocks();
      if (phase.repeat > 1 && seen[c].size() > capacity) {
        io_blocks += (phase.repeat - 1) * (seen[c].size() - capacity);
      }
    }
  }
  IoBound bound;
  if (cfg.io_cache_enabled) bound.io_bound_bytes = io_blocks * cfg.block_size;
  if (cfg.storage_cache_enabled) {
    bound.storage_bound_bytes = touched.size() * cfg.block_size;
  }
  return bound;
}

/// A random trace over files a few pages long. Most extents are short;
/// about one in six starts just before a page boundary of the global block
/// space and runs across it, and one in sixty spans more than a page.
storage::TraceProgram random_trace(util::Rng& rng, std::size_t threads) {
  storage::TraceProgram trace;
  const std::size_t files = 1 + rng.next_below(3);
  for (std::size_t f = 0; f < files; ++f) {
    trace.file_blocks.push_back(kPage / 2 + rng.next_below(3 * kPage));
  }
  std::vector<std::uint64_t> offset;
  std::uint64_t total = 0;
  for (const std::uint64_t blocks : trace.file_blocks) {
    offset.push_back(total);
    total += blocks;
  }
  const std::size_t phases = 1 + rng.next_below(4);
  for (std::size_t p = 0; p < phases; ++p) {
    storage::PhaseTrace phase;
    phase.repeat = static_cast<std::uint32_t>(1 + rng.next_below(3));
    phase.per_thread.resize(threads);
    for (auto& events : phase.per_thread) {
      const std::size_t count = rng.next_below(12);
      for (std::size_t e = 0; e < count; ++e) {
        const auto file = static_cast<storage::FileId>(rng.next_below(files));
        const std::uint64_t size = trace.file_blocks[file];
        std::uint64_t block = rng.next_below(size);
        std::uint64_t run = 1 + rng.next_below(40);
        const std::uint64_t kind = rng.next_below(60);
        if (kind < 10) {
          // Start up to 8 blocks short of the next global page boundary.
          const std::uint64_t global = offset[file] + block;
          const std::uint64_t boundary = (global / kPage + 1) * kPage;
          const std::uint64_t back = 1 + rng.next_below(8);
          if (boundary - back >= offset[file] &&
              boundary - back < offset[file] + size) {
            block = boundary - back - offset[file];
          }
          run = back + 1 + rng.next_below(16);
        } else if (kind == 10) {
          run = kPage + rng.next_below(64);
        }
        run = std::min(run, size - block);
        events.push_back({file, block, 1, rng.next_below(4) == 0,
                          static_cast<std::uint32_t>(run)});
      }
    }
    trace.phases.push_back(std::move(phase));
  }
  return trace;
}

TEST(IoLowerBoundReferenceTest, RandomTracesMatchSetModel) {
  util::Rng rng(4242);
  std::size_t straddles = 0;
  for (int trial = 0; trial < 60; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const std::size_t io_nodes = 1 + rng.next_below(4);
    const std::size_t threads = io_nodes * (1 + rng.next_below(3));
    const auto trace = random_trace(rng, threads);
    std::vector<storage::NodeId> io_node_of_thread(threads);
    for (std::size_t t = 0; t < threads; ++t) {
      io_node_of_thread[t] = static_cast<storage::NodeId>(t % io_nodes);
    }
    std::vector<std::uint64_t> offset;
    std::uint64_t total = 0;
    for (const std::uint64_t blocks : trace.file_blocks) {
      offset.push_back(total);
      total += blocks;
    }
    for (const auto& phase : trace.phases) {
      for (const auto& events : phase.per_thread) {
        for (const auto& ev : events) {
          const std::uint64_t first = offset[ev.file] + ev.block;
          if (first / kPage != (first + ev.run_blocks - 1) / kPage) {
            ++straddles;
          }
        }
      }
    }
    const auto topo = topology(io_nodes, 1 + rng.next_below(2 * kPage),
                               rng.next_below(5) != 0, rng.next_below(5) != 0);
    const storage::MaterializedTraceSource source(trace);
    const IoBound got = compute_io_lower_bound(
        source, io_node_of_thread, topo, storage::PolicyKind::kLruInclusive);
    const IoBound want = reference_bound(trace, io_node_of_thread, topo);
    EXPECT_EQ(got.io_bound_bytes, want.io_bound_bytes);
    EXPECT_EQ(got.storage_bound_bytes, want.storage_bound_bytes);
  }
  EXPECT_GT(straddles, 100u);  // the generator does reach page boundaries
}

TEST(IoLowerBoundReferenceTest, ExtentAcrossAPageBoundaryCountsOnce) {
  // One extent covers the last 3 blocks of page 0 and the first 5 of
  // page 1; a second phase touches both halves again plus 2 new blocks.
  storage::TraceProgram trace;
  trace.file_blocks = {2 * kPage};
  trace.phases.push_back({{{{0, kPage - 3, 1, false, 8}}}, 1});
  trace.phases.push_back({{{{0, kPage - 4, 1, false, 10}}}, 1});
  const auto topo = topology(1, 64);
  const storage::MaterializedTraceSource source(trace);
  const IoBound bound = compute_io_lower_bound(
      source, {0}, topo, storage::PolicyKind::kLruInclusive);
  EXPECT_EQ(bound.io_bound_bytes, 10u * 64u);
  EXPECT_EQ(bound.storage_bound_bytes, 10u * 64u);
}

TEST(IoLowerBoundReferenceTest, PagesReusedAcrossPhasesStartEmpty) {
  // One cache of 4 blocks. Phase 0 fills blocks 10..14 of page 0. Phase 1
  // (3 repetitions) revisits page 0 at 12..17: 3 compulsory fills, 6
  // distinct so 2 * (6 - 4) refills; its sweep merges the page into the
  // cache's history and hands it back to the pool, zeroed. Phase 2 (3
  // repetitions) takes that page for page 2 and marks the same offsets,
  // 12..16: 5 compulsory fills and 2 * (5 - 4) refills, which holds only
  // if no stale bit of page 0 survived the reuse.
  storage::TraceProgram trace;
  trace.file_blocks = {3 * kPage};
  trace.phases.push_back({{{{0, 10, 1, false, 5}}}, 1});
  trace.phases.push_back({{{{0, 12, 1, false, 6}}}, 3});
  trace.phases.push_back({{{{0, 2 * kPage + 12, 1, false, 5}}}, 3});
  const auto topo = topology(1, 4);
  const storage::MaterializedTraceSource source(trace);
  const IoBound bound = compute_io_lower_bound(
      source, {0}, topo, storage::PolicyKind::kLruInclusive);
  EXPECT_EQ(bound.io_bound_bytes, (5u + 3u + 2u * 2u + 5u + 2u * 1u) * 64u);
  EXPECT_EQ(bound.storage_bound_bytes, (8u + 5u) * 64u);
}

TEST(IoLowerBoundReferenceTest, HugeDeclaredFileWithAFewTouchedBlocks) {
  // 2^40 declared blocks (a dense bitset would need 128 GiB per set): the
  // pass allocates only the pages the trace touches. Touched: the first
  // block, the last block, a run across the page boundary at 2^39, and
  // the first block of a second file that starts at global block 2^40.
  constexpr std::uint64_t kHuge = std::uint64_t{1} << 40;
  storage::TraceProgram trace;
  trace.file_blocks = {kHuge, 8};
  storage::PhaseTrace phase;
  phase.per_thread = {
      {{0, 0, 1, false, 1}, {0, kHuge - 1, 1, false, 1}},
      {{0, (kHuge / 2) - 2, 1, false, 4}, {1, 0, 1, false, 1}},
  };
  trace.phases.push_back(phase);
  const auto topo = topology(2, 64);
  const storage::MaterializedTraceSource source(trace);
  const IoBound bound = compute_io_lower_bound(
      source, {0, 1}, topo, storage::PolicyKind::kLruInclusive);
  EXPECT_EQ(bound.io_bound_bytes, 7u * 64u);
  EXPECT_EQ(bound.storage_bound_bytes, 7u * 64u);
}

}  // namespace
}  // namespace flo::core
