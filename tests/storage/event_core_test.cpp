// Event core (FLO_SIM=event): EventQueue mechanics, the contention
// semantics the clock core cannot express (concurrent misses, queue
// waits, readahead occupying the disk), and the event≡clock equivalence
// envelope (DESIGN.md §4g) that the fuzz oracle pins at scale.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "storage/event_queue.hpp"
#include "storage/simulator.hpp"

namespace flo::storage {
namespace {

TEST(EventQueueTest, PopsInTimeOrder) {
  EventQueue q;
  q.push(3.0, EventKind::kDiskDone, 3);
  q.push(1.0, EventKind::kThreadIssue, 1);
  q.push(2.0, EventKind::kIoArrive, 2);
  EXPECT_EQ(q.size(), 3u);
  EXPECT_DOUBLE_EQ(q.next_time(), 1.0);
  EXPECT_EQ(q.pop().a, 1u);
  EXPECT_EQ(q.pop().a, 2u);
  EXPECT_EQ(q.pop().a, 3u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTest, FifoAmongEqualTimes) {
  // Equal timestamps break ties by insertion order — the determinism the
  // engine's thread-id scheduling relies on.
  EventQueue q;
  for (std::uint32_t t = 0; t < 8; ++t) {
    q.push(1.5, EventKind::kThreadIssue, t);
  }
  for (std::uint32_t t = 0; t < 8; ++t) {
    EXPECT_EQ(q.pop().a, t);
  }
}

TEST(EventQueueTest, RejectsTimeTravel) {
  EventQueue q;
  q.push(2.0, EventKind::kThreadIssue, 0);
  (void)q.pop();
  EXPECT_THROW(q.push(1.0, EventKind::kThreadIssue, 0), std::logic_error);
  // Pushing exactly at the popped time is legal (zero-latency hops).
  EXPECT_NO_THROW(q.push(2.0, EventKind::kIoArrive, 0));
}

TEST(EventQueueTest, TracksMaxPendingAndClears) {
  EventQueue q;
  for (int i = 0; i < 5; ++i) q.push(static_cast<double>(i),
                                     EventKind::kThreadIssue, 0);
  (void)q.pop();
  (void)q.pop();
  q.push(10.0, EventKind::kDiskDone, 0);
  EXPECT_EQ(q.max_pending(), 5u);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  // clear() also resets the monotonic floor: early times are legal again.
  EXPECT_NO_THROW(q.push(0.0, EventKind::kThreadIssue, 0));
}

TEST(SimCoreTest, ParsesAndNamesCores) {
  EXPECT_EQ(parse_sim_core("clock"), SimCoreKind::kClock);
  EXPECT_EQ(parse_sim_core("event"), SimCoreKind::kEvent);
  EXPECT_FALSE(parse_sim_core("EVENT").has_value());
  EXPECT_FALSE(parse_sim_core("").has_value());
  EXPECT_STREQ(sim_core_name(SimCoreKind::kClock), "clock");
  EXPECT_STREQ(sim_core_name(SimCoreKind::kEvent), "event");
}

// ---------------------------------------------------------------------------
// Event-core semantics on shared components.

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

HierarchySimulator event_sim(const StorageTopology& topo,
                             PolicyKind policy = PolicyKind::kLruInclusive,
                             std::vector<RangeHint> hints = {}) {
  HierarchySimulator sim(topo, policy, identity_io_mapping(topo),
                         std::move(hints));
  sim.set_core(SimCoreKind::kEvent);
  return sim;
}

TEST(SimCoreTest, SetCoreOverridesDefault) {
  const StorageTopology topo(tiny_config());
  HierarchySimulator sim(topo, PolicyKind::kLruInclusive,
                         identity_io_mapping(topo));
  sim.set_core(SimCoreKind::kEvent);
  EXPECT_EQ(sim.core(), SimCoreKind::kEvent);
  sim.set_core(SimCoreKind::kClock);
  EXPECT_EQ(sim.core(), SimCoreKind::kClock);
}

TEST(EventCoreTest, ConcurrentMissesBothReachDisk) {
  // The clock-core counterpart (SimulatorTest.SharedIoCacheAcrossThreads)
  // sees one miss and one hit because it services requests atomically.
  // The event core keeps both requests concurrently in flight: neither
  // fill has landed when the second lookup runs, so both go to disk and
  // the second queues behind the first at the single spindle.
  const StorageTopology topo(tiny_config());
  auto sim = event_sim(topo);
  TraceProgram trace;
  trace.file_blocks = {64};
  PhaseTrace phase;
  phase.per_thread.resize(2);
  phase.per_thread[0].push_back({0, 7, 1});
  phase.per_thread[1].push_back({0, 7, 1});
  trace.phases.push_back(std::move(phase));
  const auto result = sim.run(trace);
  EXPECT_EQ(result.io.lookups, 2u);
  EXPECT_EQ(result.io.hits, 0u);
  EXPECT_EQ(result.disk_reads, 2u);
  EXPECT_GE(result.queue.disk.waits, 1u);
  EXPECT_GT(result.queue.disk.wait_time, 0.0);
  EXPECT_GE(result.queue.disk.max_depth, 1u);
  EXPECT_TRUE(result.queue.any());
}

TEST(EventCoreTest, UncontendedRunReportsZeroQueueStats) {
  const StorageTopology topo(tiny_config());
  auto sim = event_sim(topo);
  TraceProgram trace;
  trace.file_blocks = {64};
  PhaseTrace phase;
  phase.per_thread.resize(1);
  for (std::uint64_t b = 0; b < 6; ++b) phase.per_thread[0].push_back({0, b, 1});
  trace.phases.push_back(std::move(phase));
  const auto result = sim.run(trace);
  EXPECT_FALSE(result.queue.any());
}

TEST(EventCoreTest, DeterministicUnderContention) {
  const StorageTopology topo(tiny_config(2, 4));
  TraceProgram trace;
  trace.file_blocks = {128};
  PhaseTrace phase;
  phase.repeat = 2;
  phase.per_thread.resize(4);
  for (std::uint32_t t = 0; t < 4; ++t) {
    for (std::uint64_t i = 0; i < 12; ++i) {
      phase.per_thread[t].push_back({0, (i * 29 + t * 7) % 128, 1 + t});
    }
  }
  trace.phases.push_back(std::move(phase));
  auto a = event_sim(topo);
  auto b = event_sim(topo);
  EXPECT_EQ(a.run(trace), b.run(trace));  // bitwise, queue stats included
}

TEST(EventCoreTest, ReadaheadChargesDiskNotRequester) {
  // Asynchronous readahead is free for the thread that triggered it, but
  // the staging transfer occupies the spindle: with a second thread
  // hammering the same disk, the contender pays queueing delay and the
  // stream still gets its storage hits.
  TopologyConfig c = tiny_config(4, 16);
  c.prefetch_depth = 4;
  const StorageTopology topo(c);
  TraceProgram trace;
  trace.file_blocks = {96, 512};
  PhaseTrace phase;
  phase.per_thread.resize(3);
  for (std::uint64_t b = 0; b < 48; ++b) {
    phase.per_thread[0].push_back({0, b, 1});
    phase.per_thread[2].push_back({1, (b * 97) % 512, 1});
  }
  trace.phases.push_back(std::move(phase));
  const auto result = event_sim(topo).run(trace);
  EXPECT_GT(result.prefetches, 0u);
  EXPECT_GT(result.storage.hits, 0u);
  EXPECT_GT(result.queue.disk.waits, 0u);
}

// ---------------------------------------------------------------------------
// The event≡clock equivalence envelope: one thread, prefetch off, faults
// off. Integer counters must agree bitwise; exec/thread times only up to
// FP re-association across the staged sums.

void expect_envelope_equal(const SimulationResult& event,
                           const SimulationResult& clock) {
  EXPECT_EQ(event.io, clock.io);
  EXPECT_EQ(event.storage, clock.storage);
  EXPECT_EQ(event.disk_reads, clock.disk_reads);
  EXPECT_EQ(event.demotions, clock.demotions);
  EXPECT_EQ(event.prefetches, clock.prefetches);
  EXPECT_EQ(event.disk_writes, clock.disk_writes);
  EXPECT_EQ(event.writebacks, clock.writebacks);
  EXPECT_EQ(event.accesses, clock.accesses);
  EXPECT_EQ(event.elements, clock.elements);
  EXPECT_EQ(event.faults, clock.faults);
  EXPECT_FALSE(event.queue.any());  // nothing ever queues with one thread
  const auto near = [](double a, double b) {
    return std::abs(a - b) <=
           1e-9 * std::max({std::abs(a), std::abs(b), 1.0});
  };
  EXPECT_TRUE(near(event.exec_time, clock.exec_time))
      << event.exec_time << " vs " << clock.exec_time;
  ASSERT_EQ(event.thread_time.size(), clock.thread_time.size());
  for (std::size_t t = 0; t < event.thread_time.size(); ++t) {
    EXPECT_TRUE(near(event.thread_time[t], clock.thread_time[t]))
        << "thread " << t << ": " << event.thread_time[t] << " vs "
        << clock.thread_time[t];
  }
}

TraceProgram envelope_trace() {
  TraceProgram trace;
  trace.file_blocks = {96, 48};
  PhaseTrace phase;
  phase.repeat = 2;
  phase.per_thread.resize(1);
  AccessEvent ev;
  for (const auto& [file, block, run] :
       {std::tuple<FileId, std::uint64_t, std::uint32_t>{0, 0, 24},
        {0, 70, 1},
        {1, 8, 17},
        {0, 3, 24},
        {1, 40, 5}}) {
    ev.file = file;
    ev.block = block;
    ev.run_blocks = run;
    ev.element_count = 3;
    phase.per_thread[0].push_back(ev);
  }
  trace.phases.push_back(std::move(phase));
  return trace;
}

void expect_cores_agree(const TopologyConfig& config, PolicyKind policy,
                        const TraceProgram& trace,
                        std::vector<RangeHint> hints = {}) {
  const StorageTopology topo(config);
  HierarchySimulator clock(topo, policy, identity_io_mapping(topo), hints);
  clock.set_core(SimCoreKind::kClock);
  HierarchySimulator event(topo, policy, identity_io_mapping(topo), hints);
  event.set_core(SimCoreKind::kEvent);
  expect_envelope_equal(event.run(trace), clock.run(trace));
}

TEST(EventClockEnvelopeTest, CachedPolicies) {
  const TopologyConfig c = tiny_config(4, 8);
  expect_cores_agree(c, PolicyKind::kLruInclusive, envelope_trace());
  expect_cores_agree(c, PolicyKind::kDemoteLru, envelope_trace());
}

TEST(EventClockEnvelopeTest, KarmaHints) {
  std::vector<RangeHint> hints = {{0, 0, 32, 10.0},
                                  {0, 32, 96, 2.0},
                                  {1, 0, 48, 0.1}};
  expect_cores_agree(tiny_config(4, 8), PolicyKind::kKarma, envelope_trace(),
                     hints);
}

TEST(EventClockEnvelopeTest, ModeledWrites) {
  TopologyConfig c = tiny_config(4, 8);
  c.model_writes = true;
  TraceProgram trace = envelope_trace();
  for (auto& ev : trace.phases[0].per_thread[0]) ev.is_write = true;
  expect_cores_agree(c, PolicyKind::kLruInclusive, trace);
  expect_cores_agree(c, PolicyKind::kDemoteLru, trace);
}

TEST(EventClockEnvelopeTest, AnalyticCachelessPath) {
  // No caches + single stream drives the event core's closed-form phase
  // path; integer stats (and settled head positions, via the second rep)
  // must still match the clock core exactly.
  TopologyConfig c = tiny_config();
  c.io_cache_enabled = false;
  c.storage_cache_enabled = false;
  c.storage_nodes = 2;  // striping splits runs across spindles
  expect_cores_agree(c, PolicyKind::kLruInclusive, envelope_trace());
}

TEST(EventClockEnvelopeTest, IoCacheDisabledStorageOnly) {
  TopologyConfig c = tiny_config();
  c.io_cache_enabled = false;
  expect_cores_agree(c, PolicyKind::kLruInclusive, envelope_trace());
}

// ---------------------------------------------------------------------------
// Queue stats flow into the wire codec and the obs registry.

TEST(WireCodecTest, QueueStatsRoundTrip) {
  const StorageTopology topo(tiny_config());
  auto sim = event_sim(topo);
  TraceProgram trace;
  trace.file_blocks = {64};
  PhaseTrace phase;
  phase.per_thread.resize(2);
  phase.per_thread[0].push_back({0, 7, 1});
  phase.per_thread[1].push_back({0, 7, 1});
  trace.phases.push_back(std::move(phase));
  const auto result = sim.run(trace);
  ASSERT_TRUE(result.queue.any());
  const auto decoded = from_wire(to_wire(result));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, result);  // bitwise, queue stats included
}

TEST(QueueMetricsTest, PublishedOnlyWhenContended) {
  obs::set_enabled(true);
  obs::registry().reset();

  // Clock-core result: no queue stats, so no sim.queue.* keys appear.
  SimulationResult quiet;
  quiet.io.lookups = 4;
  publish_to_registry(quiet);
  for (const auto& sample : obs::registry().snapshot()) {
    EXPECT_EQ(sample.name.rfind("sim.queue.", 0), std::string::npos)
        << sample.name;
  }

  SimulationResult contended;
  contended.queue.disk.waits = 3;
  contended.queue.disk.wait_time = 0.5;
  contended.queue.disk.max_depth = 2;
  publish_to_registry(contended);
  publish_to_registry(contended);  // sums must accumulate across runs
  bool saw_waits = false, saw_wait_seconds = false, saw_depth = false;
  for (const auto& sample : obs::registry().snapshot()) {
    if (sample.name == "sim.queue.disk.waits") {
      saw_waits = true;
      EXPECT_EQ(sample.value, 6.0);
    } else if (sample.name == "sim.queue.disk.wait_seconds") {
      saw_wait_seconds = true;
      EXPECT_EQ(sample.count, 2u);
      EXPECT_DOUBLE_EQ(sample.sum, 1.0);
    } else if (sample.name == "sim.queue.disk.depth") {
      saw_depth = true;
      EXPECT_DOUBLE_EQ(sample.max, 2.0);
    }
    // The uncontended layers stay absent even on the contended publish.
    EXPECT_EQ(sample.name.rfind("sim.queue.io.", 0), std::string::npos)
        << sample.name;
  }
  EXPECT_TRUE(saw_waits);
  EXPECT_TRUE(saw_wait_seconds);
  EXPECT_TRUE(saw_depth);

  obs::registry().reset();
  obs::set_enabled(false);
}

TEST(QueueMetricsTest, EventCoreQueueDepthGaugesRegistered) {
  obs::set_enabled(true);
  obs::registry().reset();

  const StorageTopology topo(tiny_config());
  auto sim = event_sim(topo);
  TraceProgram trace;
  trace.file_blocks = {64};
  PhaseTrace phase;
  phase.per_thread.resize(2);
  phase.per_thread[0].push_back({0, 7, 1});
  phase.per_thread[1].push_back({0, 7, 1});
  trace.phases.push_back(std::move(phase));
  (void)sim.run(trace);

  bool saw_disk_gauge = false;
  for (const auto& sample : obs::registry().snapshot()) {
    if (sample.name == "sim.event.queue_depth.disk") {
      saw_disk_gauge = true;
      EXPECT_EQ(sample.kind, obs::MetricKind::kGauge);
    }
  }
  EXPECT_TRUE(saw_disk_gauge);

  obs::registry().reset();
  obs::set_enabled(false);
}

TEST(PhaseSpanTest, BothCoresDrawLanesFromOneCounter) {
  // Each run puts its sim.phase spans on its own Chrome-trace lane,
  // whichever core runs it, so a clock-core and an event-core run in one
  // process never share a row.
  obs::set_enabled(true);
  obs::recorder().clear();
  const StorageTopology topo(tiny_config());
  TraceProgram trace;
  trace.file_blocks = {64};
  PhaseTrace phase;
  phase.per_thread.resize(1);
  phase.per_thread[0].push_back({0, 7, 1});
  trace.phases.push_back(std::move(phase));
  HierarchySimulator clock(topo, PolicyKind::kLruInclusive,
                           identity_io_mapping(topo));
  clock.set_core(SimCoreKind::kClock);
  (void)clock.run(trace);
  (void)event_sim(topo).run(trace);

  std::set<std::uint32_t> clock_lanes;
  std::set<std::uint32_t> event_lanes;
  const obs::SpanArgs::value_type event_core{"core", "event"};
  for (const auto& span : obs::recorder().snapshot()) {
    if (span.name != "sim.phase") continue;
    const bool event = std::find(span.args.begin(), span.args.end(),
                                 event_core) != span.args.end();
    (event ? event_lanes : clock_lanes).insert(span.tid);
  }
  obs::recorder().clear();
  obs::registry().reset();
  obs::set_enabled(false);

  ASSERT_EQ(clock_lanes.size(), 1u);
  ASSERT_EQ(event_lanes.size(), 1u);
  EXPECT_NE(*clock_lanes.begin(), *event_lanes.begin());
}

}  // namespace
}  // namespace flo::storage
