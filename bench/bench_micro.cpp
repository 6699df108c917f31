// Micro-benchmarks (google-benchmark): throughput of the pieces that
// dominate compile time and simulation time — Step I partitioning, chunk
// addressing, LRU and event-queue operations, trace generation, and
// hierarchy simulation.
#include <benchmark/benchmark.h>

#include "core/optimizer.hpp"
#include "ir/builder.hpp"
#include "layout/chunk_pattern.hpp"
#include "layout/canonical.hpp"
#include "layout/internode.hpp"
#include "storage/disk_model.hpp"
#include "storage/event_queue.hpp"
#include "storage/lru_cache.hpp"
#include "storage/simulator.hpp"
#include "trace/generator.hpp"
#include "trace/source.hpp"
#include "workloads/suite.hpp"

namespace {

using namespace flo;

ir::Program transposed_program(std::int64_t n) {
  return ir::ProgramBuilder("bench")
      .array("A", {n, n})
      .nest("sweep", {{0, n - 1}, {0, n - 1}}, 0)
      .read("A", {{0, 1}, {1, 0}})
      .done()
      .build();
}

void BM_StepIPartitioning(benchmark::State& state) {
  const auto app = workloads::workload_by_name("sp");
  const parallel::ParallelSchedule schedule(app.program, 64);
  for (auto _ : state) {
    for (ir::ArrayId a = 0; a < app.program.arrays().size(); ++a) {
      benchmark::DoNotOptimize(
          layout::partition_array(app.program, a, schedule));
    }
  }
}
BENCHMARK(BM_StepIPartitioning);

void BM_FullOptimize(benchmark::State& state) {
  const auto app = workloads::workload_by_name("sp");
  const parallel::ParallelSchedule schedule(app.program, 64);
  const core::FileLayoutOptimizer optimizer(
      storage::StorageTopology(storage::TopologyConfig::paper_default()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimizer.optimize(app.program, schedule));
  }
}
BENCHMARK(BM_FullOptimize);

void BM_ChunkStart(benchmark::State& state) {
  layout::ChunkPattern pattern({{128 << 10, 16}, {256 << 10, 4}}, 64, 8);
  std::uint64_t x = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pattern.chunk_start(static_cast<parallel::ThreadId>(x % 64), x));
    ++x;
  }
}
BENCHMARK(BM_ChunkStart);

/// The inter-node layout benchmarks' array: range(0) == 0 is a dense
/// 512 x 512 transposed sweep, 1 is add_opt_diagonal's n = 256 band
/// (8,650,752 declared elements, 65,536 touched).
ir::Program internode_bench_program(std::int64_t diagonal) {
  if (diagonal == 0) return transposed_program(512);
  constexpr std::int64_t n = 256;
  return ir::ProgramBuilder("bench_diagonal")
      .array("D", {66 * n, 2 * n})
      .nest("diag", {{0, n - 1}, {0, n - 1}}, 0)
      .read("D", {{1, 65}, {1, 1}})
      .done()
      .build();
}

void BM_InterNodeLayoutBuild(benchmark::State& state) {
  const auto p = internode_bench_program(state.range(0));
  const parallel::ParallelSchedule schedule(p, 64);
  const storage::StorageTopology topo(storage::TopologyConfig::paper_default());
  const auto partitioning = layout::partition_array(p, 0, schedule);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        layout::build_internode_layout(p, 0, partitioning, schedule, topo));
  }
}
BENCHMARK(BM_InterNodeLayoutBuild)
    ->ArgName("diagonal")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

void BM_InterNodeLayoutWalk(benchmark::State& state) {
  const auto p = internode_bench_program(state.range(0));
  const parallel::ParallelSchedule schedule(p, 64);
  const storage::StorageTopology topo(storage::TopologyConfig::paper_default());
  const auto layout = layout::build_internode_layout(p, 0, schedule, topo);
  // Every access's element point in trace order. Each thread owns one
  // contiguous block of the outer parallel loop, so the threads' walks
  // concatenated are the nest's lexicographic order.
  const auto& nest = p.nests()[0];
  const std::size_t dims = p.array(0).dims();
  std::vector<std::int64_t> points;
  std::vector<std::int64_t> iter = nest.iterations().first();
  do {
    const auto element = nest.references()[0].map.evaluate(iter);
    points.insert(points.end(), element.begin(), element.end());
  } while (nest.iterations().next(iter));
  const std::span<const std::int64_t> all(points);
  for (auto _ : state) {
    std::int64_t sum = 0;
    for (std::size_t i = 0; i < all.size(); i += dims) {
      sum += layout->slot(all.subspan(i, dims));
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(points.size() / dims));
}
BENCHMARK(BM_InterNodeLayoutWalk)->ArgName("diagonal")->Arg(0)->Arg(1);

/// Inserts over a key span twice the capacity (every insert past warm-up
/// evicts). parts:3 splits the cache into three tenant partitions, each
/// tenant inserting its own file's blocks, as QoS-partitioned runs do.
void BM_LruCacheAccess(benchmark::State& state) {
  const auto capacity = static_cast<std::size_t>(state.range(0));
  const auto parts = static_cast<std::uint32_t>(state.range(1));
  storage::LruCache cache(capacity);
  if (parts > 0) {
    std::vector<std::size_t> quotas(parts, capacity / parts);
    quotas[0] += capacity % parts;
    cache.set_partitions(quotas);
  }
  std::uint64_t b = 0;
  for (auto _ : state) {
    const std::uint32_t owner = parts > 0 ? b % parts : 0;
    cache.insert({owner, b % (2ull * capacity)}, owner);
    ++b;
  }
}
BENCHMARK(BM_LruCacheAccess)
    ->ArgNames({"cap", "parts"})
    ->Args({64, 0})
    ->Args({8192, 0})
    ->Args({64, 3});

/// Pop then push at a steady depth: range(0) pending events (tenant_qos
/// runs 3 x 64 thread slots). A quarter of the pushes tie the popped time,
/// a zero-latency hop; the rest land on an integer grid ahead of it, where
/// they tie each other exactly.
void BM_EventQueueChurn(benchmark::State& state) {
  const auto depth = static_cast<std::uint32_t>(state.range(0));
  storage::EventQueue queue;
  for (std::uint32_t i = 0; i < depth; ++i) {
    queue.push(static_cast<double>(i % 16), storage::EventKind::kThreadIssue,
               i);
  }
  std::uint64_t x = 1;
  for (auto _ : state) {
    const storage::Event e = queue.pop();
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t step = (x >> 33) % 4 == 0 ? 0 : 1 + (x >> 40) % 16;
    queue.push(e.time + static_cast<double>(step), e.kind, e.a);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueChurn)->Arg(192);

void BM_TraceGeneration(benchmark::State& state) {
  const auto p = transposed_program(256);
  const parallel::ParallelSchedule schedule(p, 64);
  const storage::StorageTopology topo(storage::TopologyConfig::paper_default());
  layout::LayoutMap layouts;
  layouts.push_back(
      std::make_unique<layout::RowMajorLayout>(p.array(0).space()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(trace::generate_trace(p, schedule, layouts, topo));
  }
  state.SetItemsProcessed(state.iterations() * 256 * 256);
}
BENCHMARK(BM_TraceGeneration);

void BM_StreamingTraceWalk(benchmark::State& state) {
  const auto p = transposed_program(256);
  const parallel::ParallelSchedule schedule(p, 64);
  const storage::StorageTopology topo(storage::TopologyConfig::paper_default());
  layout::LayoutMap layouts;
  layouts.push_back(
      std::make_unique<layout::RowMajorLayout>(p.array(0).space()));
  const trace::StreamingTraceSource source(p, schedule, layouts, topo);
  std::uint64_t events = 0;
  for (auto _ : state) {
    events = 0;
    for (std::size_t phase = 0; phase < source.phase_count(); ++phase) {
      for (std::uint32_t t = 0; t < source.thread_count(); ++t) {
        auto cursor = source.open(phase, t);
        storage::AccessEvent ev;
        while (cursor->next(ev)) {
          benchmark::DoNotOptimize(ev);
          ++events;
        }
      }
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(events));
}
BENCHMARK(BM_StreamingTraceWalk);

void BM_HierarchySimulation(benchmark::State& state) {
  const auto p = transposed_program(256);
  const parallel::ParallelSchedule schedule(p, 64);
  const storage::StorageTopology topo(storage::TopologyConfig::paper_default());
  layout::LayoutMap layouts;
  layouts.push_back(
      std::make_unique<layout::RowMajorLayout>(p.array(0).space()));
  const auto trace = trace::generate_trace(p, schedule, layouts, topo);
  std::vector<storage::NodeId> io(64);
  for (storage::NodeId t = 0; t < 64; ++t) io[t] = topo.io_node_of(t);
  std::uint64_t events = 0;
  for (const auto& phase : trace.phases) {
    for (const auto& tt : phase.per_thread) events += tt.size();
  }
  for (auto _ : state) {
    storage::HierarchySimulator sim(topo, storage::PolicyKind::kLruInclusive,
                                    io);
    benchmark::DoNotOptimize(sim.run(trace));
  }
  state.SetItemsProcessed(state.iterations() * events);
}
BENCHMARK(BM_HierarchySimulation);

void BM_HierarchySimulationStreaming(benchmark::State& state) {
  const auto p = transposed_program(256);
  const parallel::ParallelSchedule schedule(p, 64);
  const storage::StorageTopology topo(storage::TopologyConfig::paper_default());
  layout::LayoutMap layouts;
  layouts.push_back(
      std::make_unique<layout::RowMajorLayout>(p.array(0).space()));
  const trace::StreamingTraceSource source(p, schedule, layouts, topo);
  std::vector<storage::NodeId> io(64);
  for (storage::NodeId t = 0; t < 64; ++t) io[t] = topo.io_node_of(t);
  for (auto _ : state) {
    storage::HierarchySimulator sim(topo, storage::PolicyKind::kLruInclusive,
                                    io);
    benchmark::DoNotOptimize(sim.run(source));
  }
}
BENCHMARK(BM_HierarchySimulationStreaming);

// --- Extent primitives: range ops against their per-block loops. -------

void BM_LruTouchPerBlock(benchmark::State& state) {
  constexpr std::size_t kCap = 8192;
  const std::uint32_t run = static_cast<std::uint32_t>(state.range(0));
  storage::LruCache cache(kCap);
  for (std::uint64_t b = 0; b < kCap; ++b) cache.insert({0, b});
  std::uint64_t base = 0;
  for (auto _ : state) {
    for (std::uint32_t i = 0; i < run; ++i) {
      benchmark::DoNotOptimize(cache.touch({0, base + i}));
    }
    base = (base + run) % (kCap - run);
  }
  state.SetItemsProcessed(state.iterations() * run);
}
BENCHMARK(BM_LruTouchPerBlock)->Arg(64);

void BM_LruTouchRun(benchmark::State& state) {
  constexpr std::size_t kCap = 8192;
  const std::uint32_t run = static_cast<std::uint32_t>(state.range(0));
  storage::LruCache cache(kCap);
  for (std::uint64_t b = 0; b < kCap; ++b) cache.insert({0, b});
  std::uint64_t base = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.touch_run({0, base}, run));
    base = (base + run) % (kCap - run);
  }
  state.SetItemsProcessed(state.iterations() * run);
}
BENCHMARK(BM_LruTouchRun)->Arg(64);

void BM_DiskServicePerBlock(benchmark::State& state) {
  const std::uint32_t run = static_cast<std::uint32_t>(state.range(0));
  storage::DiskArray disks(1, storage::DiskModel{}, 2048);
  std::uint64_t lba = 0;
  for (auto _ : state) {
    double total = 0;
    for (std::uint32_t i = 0; i < run; ++i) {
      total += disks.service(0, lba + i);
    }
    benchmark::DoNotOptimize(total);
    lba = (lba + 100003) % (1 << 24);  // scatter: pay a seek per extent
  }
  state.SetItemsProcessed(state.iterations() * run);
}
BENCHMARK(BM_DiskServicePerBlock)->Arg(64);

void BM_DiskServiceRun(benchmark::State& state) {
  const std::uint32_t run = static_cast<std::uint32_t>(state.range(0));
  storage::DiskArray disks(1, storage::DiskModel{}, 2048);
  std::uint64_t lba = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(disks.service_run(0, lba, run));
    lba = (lba + 100003) % (1 << 24);
  }
  state.SetItemsProcessed(state.iterations() * run);
}
BENCHMARK(BM_DiskServiceRun)->Arg(64);

// --- Simulator extent fast path vs the per-block reference. ------------
//
// A warm single-threaded sequential scan (repeat > 1 so re-reads hit the
// I/O cache; one thread so the scheduler's inline budget stays open and
// whole extents batch — concurrent lockstep threads must interleave per
// block for bit-identity with the reference). The arg toggles extent
// batching; items = logical blocks serviced, so the two counters compare
// directly as blocks/second.

void BM_ExtentSimulation(benchmark::State& state) {
  const bool extents = state.range(0) != 0;
  storage::TopologyConfig c;
  c.compute_nodes = 4;
  c.io_nodes = 2;
  c.storage_nodes = 2;
  c.block_size = 2048;
  c.io_cache_bytes = 4096 * c.block_size;
  c.storage_cache_bytes = 8192 * c.block_size;
  const storage::StorageTopology topo(c);
  storage::TraceProgram trace;
  trace.file_blocks = {1 << 14};
  storage::PhaseTrace phase;
  phase.repeat = 8;
  phase.per_thread.resize(1);
  std::uint64_t blocks = 0;
  for (std::uint32_t e = 0; e < 8; ++e) {
    storage::AccessEvent ev;
    ev.block = e * 256;
    ev.element_count = 4;
    ev.run_blocks = 256;
    phase.per_thread[0].push_back(ev);
    blocks += ev.run_blocks * phase.repeat;
  }
  trace.phases.push_back(std::move(phase));
  const std::vector<storage::NodeId> io{topo.io_node_of(0)};
  for (auto _ : state) {
    storage::HierarchySimulator sim(topo, storage::PolicyKind::kLruInclusive,
                                    io);
    sim.set_extent_batching(extents);
    benchmark::DoNotOptimize(sim.run(trace));
  }
  state.SetItemsProcessed(state.iterations() * blocks);
}
BENCHMARK(BM_ExtentSimulation)->Arg(0)->Arg(1);

// Cache-less streaming: every block comes straight off the striped disks.
// After the first stripe cycle positions the heads, the extent path
// charges a constant per block, so this is where batching pays the most.

void BM_ExtentSimulationStreaming(benchmark::State& state) {
  const bool extents = state.range(0) != 0;
  storage::TopologyConfig c;
  c.compute_nodes = 4;
  c.io_nodes = 2;
  c.storage_nodes = 2;
  c.block_size = 2048;
  c.io_cache_enabled = false;
  c.storage_cache_enabled = false;
  const storage::StorageTopology topo(c);
  storage::TraceProgram trace;
  trace.file_blocks = {1 << 14};
  storage::PhaseTrace phase;
  phase.repeat = 4;
  phase.per_thread.resize(1);
  std::uint64_t blocks = 0;
  for (std::uint32_t e = 0; e < 8; ++e) {
    storage::AccessEvent ev;
    ev.block = e * 1024;
    ev.element_count = 4;
    ev.run_blocks = 1024;
    phase.per_thread[0].push_back(ev);
    blocks += ev.run_blocks * phase.repeat;
  }
  trace.phases.push_back(std::move(phase));
  const std::vector<storage::NodeId> io{topo.io_node_of(0)};
  for (auto _ : state) {
    storage::HierarchySimulator sim(topo, storage::PolicyKind::kLruInclusive,
                                    io);
    sim.set_extent_batching(extents);
    benchmark::DoNotOptimize(sim.run(trace));
  }
  state.SetItemsProcessed(state.iterations() * blocks);
}
BENCHMARK(BM_ExtentSimulationStreaming)->Arg(0)->Arg(1);

// --- Simulator cores head-to-head: clock extent path vs event analytic. --
//
// The same large cache-less sequential grid under both cores, one thread
// so both take their respective fast paths: the clock core's extent bulk
// loop still charges per block, the event core's closed-form phase path
// charges per extent. Items = logical blocks serviced, so the two rows
// compare directly as blocks/second (the trajectory gate in
// tools/check_perf_trajectory.py holds the event row to >=2x the clock
// row).

storage::TraceProgram sim_core_grid(std::uint64_t& blocks) {
  storage::TraceProgram trace;
  trace.file_blocks = {1 << 17};
  storage::PhaseTrace phase;
  phase.repeat = 4;
  phase.per_thread.resize(1);
  blocks = 0;
  for (std::uint32_t e = 0; e < 16; ++e) {
    storage::AccessEvent ev;
    ev.block = e * 8192;
    ev.element_count = 4;
    ev.run_blocks = 8192;
    phase.per_thread[0].push_back(ev);
    blocks += static_cast<std::uint64_t>(ev.run_blocks) * phase.repeat;
  }
  trace.phases.push_back(std::move(phase));
  return trace;
}

void run_sim_core_grid(benchmark::State& state, storage::SimCoreKind core) {
  storage::TopologyConfig c;
  c.compute_nodes = 4;
  c.io_nodes = 2;
  c.storage_nodes = 2;
  c.block_size = 2048;
  c.io_cache_enabled = false;
  c.storage_cache_enabled = false;
  const storage::StorageTopology topo(c);
  std::uint64_t blocks = 0;
  const auto trace = sim_core_grid(blocks);
  const std::vector<storage::NodeId> io{topo.io_node_of(0)};
  for (auto _ : state) {
    storage::HierarchySimulator sim(topo, storage::PolicyKind::kLruInclusive,
                                    io);
    sim.set_core(core);
    sim.set_extent_batching(true);
    benchmark::DoNotOptimize(sim.run(trace));
  }
  state.SetItemsProcessed(state.iterations() * blocks);
}

void BM_SimCoreClock(benchmark::State& state) {
  run_sim_core_grid(state, storage::SimCoreKind::kClock);
}
BENCHMARK(BM_SimCoreClock);

void BM_SimCoreEvent(benchmark::State& state) {
  run_sim_core_grid(state, storage::SimCoreKind::kEvent);
}
BENCHMARK(BM_SimCoreEvent);

// --- Disk-knob ablation: layout wins vs controller wins. ----------------
//
// Three access patterns for the same 2048 blocks of work — scattered
// (poor layout), strided (a decent-but-imperfect layout), contiguous
// (the compiler's linearized layout) — crossed with the FFS-style
// controller knobs. The separation the rows show in `sim_seconds`
// (simulated, not wall, time): a track-buffer readahead window rescues
// the strided pattern but cannot touch the scattered one (the jumps
// exceed any plausible window), cylinder-group allocation shaves only the
// long-seek fraction off the scattered pattern, and the contiguous
// layout needs no controller help at all — layout wins survive with the
// knobs off, controller wins evaporate once the layout streams.

void BM_DiskKnobAblation(benchmark::State& state) {
  const std::int64_t pattern = state.range(0);   // 0 scatter, 1 stride, 2 linear
  const auto window = static_cast<std::uint32_t>(state.range(1));
  const auto group = static_cast<std::uint64_t>(state.range(2));
  storage::TopologyConfig c;
  c.compute_nodes = 1;
  c.io_nodes = 1;
  c.storage_nodes = 1;
  c.block_size = 2048;
  c.io_cache_enabled = false;
  c.storage_cache_enabled = false;
  c.disk.readahead_window = window;
  c.disk.cylinder_group_blocks = group;
  const storage::StorageTopology topo(c);
  storage::TraceProgram trace;
  trace.file_blocks = {1 << 20};
  storage::PhaseTrace phase;
  phase.per_thread.resize(1);
  constexpr std::uint64_t kBlocks = 2048;
  if (pattern == 2) {
    for (std::uint32_t e = 0; e < 8; ++e) {
      storage::AccessEvent ev;
      ev.block = e * 256;
      ev.run_blocks = 256;
      phase.per_thread[0].push_back(ev);
    }
  } else {
    const std::uint64_t stride = pattern == 0 ? 499979 : 8;
    for (std::uint64_t i = 0; i < kBlocks; ++i) {
      phase.per_thread[0].push_back({0, (i * stride) % (1 << 20), 1});
    }
  }
  trace.phases.push_back(std::move(phase));
  const std::vector<storage::NodeId> io{0};
  double sim_seconds = 0;
  for (auto _ : state) {
    storage::HierarchySimulator sim(topo, storage::PolicyKind::kLruInclusive,
                                    io);
    const auto result = sim.run(trace);
    sim_seconds = result.exec_time;
    benchmark::DoNotOptimize(result);
  }
  state.counters["sim_seconds"] = sim_seconds;
  state.SetItemsProcessed(state.iterations() * kBlocks);
}
BENCHMARK(BM_DiskKnobAblation)
    ->ArgNames({"pattern", "readahead", "cylgroup"})
    ->Args({0, 0, 0})
    ->Args({0, 64, 0})
    ->Args({0, 0, 1 << 20})
    ->Args({1, 0, 0})
    ->Args({1, 64, 0})
    ->Args({2, 0, 0})
    ->Args({2, 64, 0});

}  // namespace

BENCHMARK_MAIN();
