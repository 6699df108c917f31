#include "storage/simulator.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

#include "obs/span.hpp"
#include "storage/event_core.hpp"

namespace flo::storage {

HierarchySimulator::HierarchySimulator(StorageTopology topology,
                                       PolicyKind policy,
                                       std::vector<NodeId> io_node_of_thread,
                                       std::vector<RangeHint> hints)
    : topology_(std::move(topology)),
      policy_(policy),
      io_node_of_thread_(std::move(io_node_of_thread)),
      network_(topology_.config().latency, topology_.config().block_size),
      faults_(topology_.config().fault) {
  const auto& cfg = topology_.config();
  for (NodeId io : io_node_of_thread_) {
    if (io >= cfg.io_nodes) {
      throw std::invalid_argument("HierarchySimulator: bad io node for thread");
    }
  }
  if (policy_ == PolicyKind::kKarma) {
    karma_ = KarmaAllocator(
        std::move(hints),
        static_cast<std::uint64_t>(topology_.io_cache_blocks()) * cfg.io_nodes,
        static_cast<std::uint64_t>(topology_.storage_cache_blocks()) *
            cfg.storage_nodes);
  }
  io_caches_.reserve(cfg.io_nodes);
  for (std::size_t i = 0; i < cfg.io_nodes; ++i) {
    io_caches_.emplace_back(topology_.io_cache_blocks());
  }
  storage_caches_.reserve(cfg.storage_nodes);
  for (std::size_t i = 0; i < cfg.storage_nodes; ++i) {
    storage_caches_.emplace_back(topology_.storage_cache_blocks());
  }
  storage_dirty_.resize(cfg.storage_nodes);
}

double HierarchySimulator::on_io_eviction(const Victim& victim,
                                          SimulationResult& result) {
  // Write-back: a dirty victim is shipped down to its storage cache; a
  // clean one is simply dropped. A block may be cached dirty in several
  // I/O caches; only this cache's copy is being evicted.
  if (!victim.dirty) return 0;
  double t = network_.demotion();
  ++result.writebacks;
  const auto& cfg = topology_.config();
  const NodeId node = striping_.storage_node_of(victim.key);
  if (cfg.storage_cache_enabled) {
    storage_insert(node, victim.key, result);
    storage_dirty_[node].insert(victim.key.packed());
  } else {
    t += disks_.service(node, striping_.lba_of(victim.key));
    ++result.disk_writes;
  }
  return t;
}

std::optional<Victim> HierarchySimulator::cache_insert(
    LruCache& cache, LayerStats& layer, std::uint64_t TenantStats::*evictions,
    BlockKey key, bool dirty, SimulationResult& result) {
  std::optional<Victim> victim;
  if (partitioner_.active()) {
    const bool was_resident = cache.contains(key);
    victim = cache.insert(key, ledger_.tenant(), dirty);
    partitioner_.note_insert(ledger_.tenant(), was_resident,
                             victim.has_value(), evictions, result.tenants);
  } else {
    victim = cache.insert(key, 0, dirty);
  }
  ++layer.fills;
  layer.bytes_filled += topology_.config().block_size;
  if (victim) ++layer.evictions;
  return victim;
}

void HierarchySimulator::storage_insert(NodeId node, BlockKey key,
                                        SimulationResult& result) {
  const std::optional<Victim> victim =
      cache_insert(storage_caches_[node], result.storage,
                   &TenantStats::storage_evictions, key, false, result);
  // The write-back cost of a storage-level dirty eviction is accounted by
  // the next request.
  if (victim && topology_.config().model_writes &&
      storage_dirty_[node].erase(victim->key.packed()) != 0) {
    defer_writeback(node, victim->key);
  }
}

void HierarchySimulator::defer_writeback(NodeId node, BlockKey victim) {
  const std::uint64_t lba = striping_.lba_of(victim);
  pending_writeback_cost_ += disks_.peek_service(node, lba);
  ++pending_writeback_count_;
  disks_.advance_head(node, lba);
}

void HierarchySimulator::advance_stream(BlockKey key, NodeId node,
                                        bool staging_allowed,
                                        SimulationResult& result) {
  const auto& cfg = topology_.config();
  // Without readahead into a storage cache the detector can never stage a
  // block, so it is not kept at all.
  if (cfg.prefetch_depth == 0 || !cfg.storage_cache_enabled) return;
  // Stream detection per (node, file): the previous block of this file on
  // this node must be the preceding local stripe. This survives other
  // threads' interleaved traffic, like a real per-file readahead window.
  const std::uint64_t stream_key =
      (static_cast<std::uint64_t>(node) << 40) | key.file;
  const auto it = stream_pos_.find(stream_key);
  const bool sequential =
      it != stream_pos_.end() &&
      key.block == it->second + cfg.storage_nodes;
  stream_pos_[stream_key] = key.block;
  if (!sequential || !staging_allowed) return;
  // Readahead: stage the next local stripes of this file (they live on the
  // same disk, `storage_nodes` file blocks apart). The staging transfer
  // overlaps with the stream, so no latency is charged to the requester.
  std::uint64_t staged_to = 0;
  bool staged = false;
  for (std::uint32_t d = 1; d <= cfg.prefetch_depth; ++d) {
    const std::uint64_t next =
        key.block + static_cast<std::uint64_t>(d) * cfg.storage_nodes;
    if (next >= striping_.file_blocks(key.file)) break;
    const BlockKey ahead{key.file, next};
    staged_to = striping_.lba_of(ahead);
    staged = true;
    if (!storage_caches_[node].contains(ahead)) {
      storage_insert(node, ahead, result);
      ++result.prefetches;
    }
  }
  // Staging streams the blocks under the already-positioned head.
  if (staged) disks_.advance_head(node, staged_to);
}

double HierarchySimulator::disk_read(NodeId node, std::uint64_t lba,
                                     SimulationResult& result) {
  double t = 0;
  if (faults_.enabled()) {
    // Transient failures: every failed attempt still spins the disk and
    // then waits out an exponential backoff, all charged to the virtual
    // clock. The disk is the hierarchy's floor, so an exhausted retry
    // budget forces the read through instead of bypassing.
    std::uint32_t attempt = 0;
    while (faults_.disk_read_fails()) {
      ++result.faults.disk.transient_failures;
      if (attempt >= faults_.config().max_retries) {
        ++result.faults.exhausted_retries;
        break;
      }
      const double failed = disks_.service(node, lba);
      const double delay = faults_.backoff(attempt++);
      t += failed + delay;
      result.faults.disk.degraded_time += failed + delay;
    }
  }
  double svc = disks_.service(node, lba);
  if (faults_.enabled() && faults_.disk_read_slow()) {
    const double extra =
        svc * (faults_.config().slow_disk_multiplier - 1.0);
    svc += extra;
    ++result.faults.disk.slow_services;
    result.faults.disk.degraded_time += extra;
  }
  return t + svc;
}

void HierarchySimulator::settle_stream(FileId file, std::uint64_t first,
                                       std::uint64_t len) {
  // Round-robin striping: block first + k lands on disk (first + k) %
  // cycle, so each disk serves every cycle-th block of the run.
  const std::uint32_t cycle =
      static_cast<std::uint32_t>(striping_.storage_nodes());
  const std::uint64_t full = len / cycle;
  const std::uint64_t rem = len % cycle;
  const std::uint32_t phase = static_cast<std::uint32_t>(first % cycle);
  for (std::uint32_t d = 0; d < cycle; ++d) {
    const std::uint32_t offset = (d + cycle - phase) % cycle;
    const std::uint64_t count = full + (offset < rem ? 1u : 0u);
    if (count == 0) continue;
    const std::uint64_t last = first + offset + (count - 1) * cycle;
    disks_.note_sequential_reads(static_cast<NodeId>(d),
                                 striping_.lba_of({file, last}), count);
  }
}

double HierarchySimulator::begin_request(std::uint32_t thread, double now,
                                         const AccessEvent& event, Request& r,
                                         SimulationResult& result) {
  const auto& cfg = topology_.config();
  r = Request{};
  r.key = {event.file, event.block};
  r.io = io_node_of_thread_[thread];
  r.issue = now;
  r.is_write =
      cfg.model_writes && event.is_write && policy_ != PolicyKind::kKarma;
  double t = cfg.latency.cpu_per_element *
             static_cast<double>(event.element_count);
  t += network_.compute_io_hop();
  ++result.accesses;
  result.elements += event.element_count;
  if (pending_writeback_cost_ > 0) {
    // Deferred storage-level write-backs are charged to the next request.
    t += pending_writeback_cost_;
    result.disk_writes += pending_writeback_count_;
    pending_writeback_cost_ = 0;
    pending_writeback_count_ = 0;
  }

  const bool io_online =
      !faults_.enabled() || !faults_.offline(FaultLayer::kIo, r.io, now);
  if (policy_ != PolicyKind::kKarma) {
    // LRU-inclusive and DEMOTE-LRU share the I/O-level flow.
    r.bypass = !cfg.storage_cache_enabled;
    if (cfg.io_cache_enabled && io_online) return t;  // Route::kIo
    if (cfg.io_cache_enabled) ++result.faults.io.bypasses;
    r.route = Route::kDirect;
    r.node = striping_.storage_node_of(r.key);
    r.lba = striping_.lba_of(r.key);
    return t;
  }
  // KARMA places each range class at exactly one level (exclusive
  // placement): the other levels are bypassed entirely.
  const CacheLevel level = karma_.level_of(r.key);
  r.bypass = true;
  if (level == CacheLevel::kIo && cfg.io_cache_enabled) {
    if (io_online) {
      r.route = Route::kKarmaIo;
      return t;
    }
    // The pinned I/O cache is dark: fall through straight to disk.
    ++result.faults.io.bypasses;
  }
  r.route = Route::kKarmaDirect;
  r.node = striping_.storage_node_of(r.key);
  r.lba = striping_.lba_of(r.key);
  if (level == CacheLevel::kStorage && cfg.storage_cache_enabled) {
    if (!faults_.enabled() ||
        !faults_.offline(FaultLayer::kStorage, r.node, now)) {
      r.route = Route::kKarmaStorage;
      r.bypass = false;
    } else {
      ++result.faults.storage.bypasses;
    }
  }
  return t;
}

bool HierarchySimulator::io_lookup(Request& r, SimulationResult& result) {
  ++result.io.lookups;
  if (io_caches_[r.io].touch(r.key, r.is_write)) {
    ++result.io.hits;
    return true;
  }
  r.node = striping_.storage_node_of(r.key);
  r.lba = striping_.lba_of(r.key);
  return false;
}

void HierarchySimulator::storage_faults(Request& r, double& t,
                                        SimulationResult& result) {
  // KARMA resolved its storage outage at issue and retries nothing.
  if (r.bypass || r.route == Route::kKarmaStorage || !faults_.enabled()) {
    return;
  }
  // Outages and exhausted fabric-retry budgets bypass the storage cache
  // for this request: no lookup, no fill, no readahead staging. Outage
  // windows are resolved against the request's issue time.
  if (faults_.offline(FaultLayer::kStorage, r.node, r.issue)) {
    r.bypass = true;
    ++result.faults.storage.bypasses;
    return;
  }
  // Transient storage-fabric failures: each failed attempt waits out an
  // exponential backoff (charged to the virtual clock) and retries until
  // the budget runs out, which falls through to disk.
  std::uint32_t attempt = 0;
  while (faults_.storage_read_fails()) {
    ++result.faults.storage.transient_failures;
    if (attempt >= faults_.config().max_retries) {
      ++result.faults.exhausted_retries;
      ++result.faults.storage.bypasses;
      r.bypass = true;
      return;
    }
    const double delay = faults_.backoff(attempt++);
    t += delay;
    result.faults.storage.degraded_time += delay;
  }
}

bool HierarchySimulator::storage_lookup(const Request& r,
                                        SimulationResult& result) {
  ++result.storage.lookups;
  if (!storage_caches_[r.node].touch(r.key)) return false;
  ++result.storage.hits;
  return true;
}

void HierarchySimulator::storage_hit_done(const Request& r,
                                          SimulationResult& result) {
  // KARMA's storage ranges neither stage readahead nor move up.
  if (r.route == Route::kKarmaStorage) return;
  // A hit on a staged block continues the stream: keep the detector and
  // the readahead window moving.
  advance_stream(r.key, r.node, /*staging_allowed=*/true, result);
  if (policy_ == PolicyKind::kDemoteLru) {
    // Exclusive caching: a block read through the storage cache moves up
    // to the client; keeping it below would duplicate it.
    partitioner_.erase(storage_caches_[r.node], r.key);
  }
}

void HierarchySimulator::disk_read_done(const Request& r,
                                        SimulationResult& result) {
  ++result.disk_reads;
  if (r.route == Route::kKarmaIo) {
    io_insert(r.io, r.key, false, result);
    return;
  }
  if (r.route == Route::kKarmaDirect) return;
  // Inclusive fill: the block is retained below as well as above. DEMOTE
  // deliberately does not fill on the read path: its storage cache is
  // populated by demotions (and readahead) only.
  if (!r.bypass && policy_ != PolicyKind::kDemoteLru) {
    storage_insert(r.node, r.key, result);
  }
  advance_stream(r.key, r.node, /*staging_allowed=*/!r.bypass, result);
}

void HierarchySimulator::fill_io(const Request& r, double& t,
                                 SimulationResult& result) {
  const std::optional<Victim> victim =
      io_insert(r.io, r.key, r.is_write, result);
  if (!victim) return;
  if (topology_.config().model_writes) t += on_io_eviction(*victim, result);
  if (policy_ == PolicyKind::kDemoteLru) {
    // Ship the evicted block down instead of dropping it (Wong & Wilkes).
    storage_insert(striping_.storage_node_of(victim->key), victim->key,
                   result);
    t += network_.demotion();
    ++result.demotions;
  }
}

std::uint32_t HierarchySimulator::service_extent_bulk(
    std::uint32_t thread, AccessEvent& ev, double& now, double& busy,
    HeapKey budget, SimulationResult& result) {
  if (!extent_batching_ || ev.run_blocks <= 1) return 0;
  const auto& cfg = topology_.config();
  // Anything that makes per-block behaviour state-dependent in ways a run
  // cannot batch — fault decision streams, KARMA range classes, dirty-bit
  // marking, a deferred write-back charge pending against the next
  // request — falls back to the per-block reference.
  if (faults_.enabled() || policy_ == PolicyKind::kKarma ||
      (cfg.model_writes && ev.is_write) || pending_writeback_cost_ > 0) {
    return 0;
  }
  // Scheduler budget: the thread keeps servicing blocks inline only while
  // it would still be scheduled next, i.e. its packed (clock, id) key stays
  // strictly below every other runnable thread's. No other clock moves
  // during the run, so the budget is a constant bound.
  const auto within_budget = [&](double at) {
    return pack_key(at, thread) < budget;
  };

  if (cfg.io_cache_enabled) {
    // Run of I/O-cache hits, promoted block by block as each is serviced
    // (exactly what per-block service() does on a hit), so a budget cut or
    // a mid-run miss leaves the cache as the reference path would. Each
    // block is charged what service() charges an I/O hit, accumulated
    // block by block so the clocks match the reference bit for bit. The
    // touch doubles as the residency probe: one map find per serviced
    // block, none wasted when the budget cuts the run short.
    LruCache& cache = io_caches_[io_node_of_thread_[thread]];
    double per = cfg.latency.cpu_per_element *
                 static_cast<double>(ev.element_count);
    per += network_.compute_io_hop();
    per += cfg.latency.io_cache_hit;
    std::uint32_t m = 0;
    for (;;) {
      if (!cache.touch({ev.file, ev.block + m})) break;  // miss ends the run
      now += per;
      busy += per;
      ++m;
      if (m == ev.run_blocks || !within_budget(now)) break;
    }
    if (m == 0) return 0;
    result.accesses += m;
    result.elements += ev.element_count * m;
    result.io.lookups += m;
    result.io.hits += m;
    ev.block += m;
    ev.run_blocks -= m;
    return m;
  }

  if (!cfg.storage_cache_enabled) {
    // Cache-less hierarchy: the run streams straight off the disks.
    // Stream-detector bookkeeping is skipped: with the storage cache
    // disabled it can never stage a block or alter any charged time.
    //
    // Round-robin striping sends consecutive blocks to consecutive nodes,
    // with per-node LBAs one apart — so once the first `cycle` blocks have
    // positioned every disk, each remaining block costs hop + pure
    // transfer, the identical double every time. The steady loop charges
    // that constant per block (the same adds in the same order as the
    // reference), then settles heads and read counts in one pass per disk.
    double t1 = cfg.latency.cpu_per_element *
                static_cast<double>(ev.element_count);
    t1 += network_.compute_io_hop();
    const std::uint32_t cycle =
        static_cast<std::uint32_t>(striping_.storage_nodes());
    std::uint32_t m = 0;
    bool more = true;
    for (;;) {  // position each disk in the stripe cycle once
      const BlockKey key{ev.file, ev.block + m};
      const NodeId node = striping_.storage_node_of(key);
      double t2 = network_.io_storage_hop();
      t2 += disks_.service(node, striping_.lba_of(key));
      const double dt = t1 + t2;
      now += dt;
      busy += dt;
      ++m;
      if (m == ev.run_blocks || !within_budget(now)) {
        more = false;
        break;
      }
      if (m >= cycle) break;
    }
    if (more) {
      double t2 = network_.io_storage_hop();
      t2 += disks_.sequential_transfer();
      const double dt = t1 + t2;
      const std::uint32_t start = m;
      for (;;) {
        now += dt;
        busy += dt;
        ++m;
        if (m == ev.run_blocks || !within_budget(now)) break;
      }
      settle_stream(ev.file, ev.block + start, m - start);
    }
    result.accesses += m;
    result.elements += ev.element_count * m;
    result.disk_reads += m;
    ev.block += m;
    ev.run_blocks -= m;
    return m;
  }
  return 0;
}

double HierarchySimulator::service(std::uint32_t thread, double now,
                                   const AccessEvent& event,
                                   SimulationResult& result) {
  const LatencyModel& latency = topology_.config().latency;
  Request r;
  double t = begin_request(thread, now, event, r, result);
  if (r.route == Route::kIo || r.route == Route::kKarmaIo) {
    if (io_lookup(r, result)) return t + latency.io_cache_hit;
  }
  if (r.route == Route::kIo || r.route == Route::kDirect) {
    // The LRU/DEMOTE storage level sums its own charges (hop, fabric
    // retries, then the hit or the disk read) before they join `t`.
    double below = network_.io_storage_hop();
    storage_faults(r, below, result);
    if (!r.bypass && storage_lookup(r, result)) {
      below += latency.storage_cache_hit;
      storage_hit_done(r, result);
    } else {
      below += disk_read(r.node, r.lba, result);
      disk_read_done(r, result);
    }
    t += below;
    if (r.route == Route::kIo) fill_io(r, t, result);
    return t;
  }
  // KARMA below the I/O level charges straight into `t`.
  t += network_.io_storage_hop();
  if (r.route == Route::kKarmaStorage && storage_lookup(r, result)) {
    return t + latency.storage_cache_hit;
  }
  t += disk_read(r.node, r.lba, result);
  disk_read_done(r, result);
  return t;
}

void HierarchySimulator::set_tenants(std::vector<std::uint32_t> tenant_of_thread,
                                     std::uint32_t tenant_count) {
  ledger_.assign(std::move(tenant_of_thread), tenant_count);
}

void HierarchySimulator::rebalance(SimulationResult& result) {
  ledger_.refresh(result);
  for (const QosPartitioner::Trimmed& v : partitioner_.rebalance(
           result.accesses, result.tenants, io_caches_, storage_caches_)) {
    ++(v.storage ? result.storage : result.io).evictions;
    // A dirty trim victim is written straight down to disk in the
    // background, deferred to the next request like a storage eviction.
    if (!topology_.config().model_writes) continue;
    const bool dirty =
        v.storage ? storage_dirty_[v.cache].erase(v.key) != 0 : v.dirty;
    if (!dirty) continue;
    ++result.writebacks;
    const BlockKey victim = BlockKey::unpack(v.key);
    defer_writeback(striping_.storage_node_of(victim), victim);
  }
}

SimulationResult HierarchySimulator::run(const TraceSource& source) {
  if (source.thread_count() > io_node_of_thread_.size()) {
    throw std::invalid_argument("HierarchySimulator: more traces than threads");
  }
  if (ledger_.enabled() &&
      ledger_.tenant_of_thread().size() < source.thread_count()) {
    throw std::invalid_argument(
        "HierarchySimulator: tenant map shorter than trace streams");
  }
  // Every run starts cold: caches, disks, striping, the fault stream,
  // write-back bookkeeping, the tenant scope and the QoS partitions.
  ledger_.reset();
  striping_ = Striping(topology_.config().storage_nodes, source.file_blocks());
  disks_ = DiskArray(topology_.config().storage_nodes,
                     topology_.config().disk, topology_.config().block_size);
  stream_pos_.clear();
  for (auto& d : storage_dirty_) d.clear();
  pending_writeback_cost_ = 0;
  pending_writeback_count_ = 0;
  for (auto& c : io_caches_) c.clear();
  for (auto& c : storage_caches_) c.clear();
  partitioner_.arm(topology_, policy_ == PolicyKind::kKarma, ledger_,
                   io_caches_, storage_caches_);
  faults_.reset();  // replay the identical fault stream on every run

  const std::size_t threads = io_node_of_thread_.size();
  const std::size_t streams = source.thread_count();
  RunState run;
  if (ledger_.enabled()) run.result.tenants.resize(ledger_.tenant_count());
  run.clock.assign(threads, 0.0);
  run.busy.assign(threads, 0.0);
  std::optional<EventEngine> event;
  if (core_ == SimCoreKind::kEvent) event.emplace(*this, run);

  // Virtual-clock observability lane: one per simulated run, whichever
  // core runs it, so phase spans from concurrently simulating cells land
  // on distinct Chrome-trace rows. Timestamps are the deterministic
  // virtual clocks, not wall time.
  const bool tracing = obs::enabled();
  std::uint32_t lane = 0;
  if (tracing) {
    static std::atomic<std::uint32_t> next_lane{0};
    lane = next_lane.fetch_add(1);
  }

  for (std::size_t p = 0; p < source.phase_count(); ++p) {
    for (std::uint32_t rep = 0; rep < source.phase_repeat(p); ++rep) {
      // All clocks are barrier-aligned here, so clock[0] is the phase start.
      const double phase_start = run.clock.empty() ? 0.0 : run.clock[0];
      // Each thread holds exactly one buffered extent (its CursorPump), so
      // resident trace state is O(threads) regardless of trace length.
      run.pumps.clear();
      run.pumps.reserve(streams);
      run.active.clear();
      for (std::uint32_t t = 0; t < streams; ++t) {
        run.pumps.emplace_back(source.open(p, t));
        if (run.pumps[t].prime()) run.active.push_back(t);
      }
      if (event) {
        event->run_phase();
      } else {
        run_clock_phase(run);
      }
      // Bulk-synchronous barrier between nests / repetitions; the run's
      // exec time is the last one.
      const double barrier =
          run.clock.empty()
              ? 0.0
              : *std::max_element(run.clock.begin(), run.clock.end());
      for (auto& c : run.clock) c = barrier;
      if (tracing) {
        obs::SpanArgs args{{"phase", std::to_string(p)},
                           {"rep", std::to_string(rep)}};
        if (event) args.emplace_back("core", "event");
        obs::record_virtual_span("sim.phase", "sim", lane, phase_start,
                                 barrier - phase_start, std::move(args));
      }
    }
  }

  SimulationResult& result = run.result;
  result.exec_time = run.clock.empty() ? 0.0 : run.clock[0];
  result.thread_time = std::move(run.busy);
  ledger_.finish(result);
  // Drain the deferred write-backs: a trace ending in a write would
  // otherwise drop them (the next request they wait for never comes).
  // After the final barrier, so no thread's busy time moves; the drain is
  // background device work.
  if (pending_writeback_count_ != 0 || pending_writeback_cost_ > 0) {
    result.exec_time += pending_writeback_cost_;
    result.disk_writes += pending_writeback_count_;
  }
  return std::move(result);
}

void HierarchySimulator::run_clock_phase(RunState& run) {
  SimulationResult& result = run.result;
  std::vector<CursorPump>& pumps = run.pumps;
  std::vector<double>& clock = run.clock;
  std::vector<double>& busy = run.busy;
  // Min-clock-first scheduling with thread id tiebreak: deterministic and
  // approximates concurrent execution against the shared caches.
  // Multi-block extents (AccessEvent::run_blocks) are split here: every
  // block is one scheduling step, so interleaving against other threads is
  // identical to a per-block event stream.
  PackedHeap<HeapKey> heap;
  for (std::uint32_t t : run.active) heap.push(pack_key(clock[t], t));
  while (!heap.empty()) {
    // The running thread stays at the root while it runs; the smallest
    // key below it is its budget.
    const HeapKey top = heap.top();
    const auto t = static_cast<std::uint32_t>(key_low(top));
    const HeapKey budget = heap.runner_up();
    double now = key_time(top);
    attribute(t, result);
    // Inline continuation: keep stepping thread t while it would be
    // scheduled next anyway (its key strictly below the budget). This
    // reproduces one-step-per-block ordering exactly while skipping a
    // heap operation per block — and is what lets the extent fast path
    // run a long resident run in one tight loop.
    bool finished = false;
    for (;;) {
      AccessEvent& ev = pumps[t].head();
      if (service_extent_bulk(t, ev, now, busy[t], budget, result) == 0) {
        AccessEvent head = ev;
        head.run_blocks = 1;
        const double dt = service(t, now, head, result);
        now += dt;
        busy[t] += dt;
        ++ev.block;
        // A hand-built run_blocks == 0 event degrades to one block
        // instead of underflowing the remaining-run counter.
        if (ev.run_blocks != 0) --ev.run_blocks;
      }
      if (pumps[t].exhausted() && !pumps[t].refill()) {
        finished = true;
        break;
      }
      if (!(pack_key(now, t) < budget)) break;
    }
    clock[t] = now;
    // A stopped thread takes its new key down in one sift; the heap pops
    // only when the thread's stream ends.
    if (finished) {
      heap.pop();
    } else {
      heap.replace_top(pack_key(now, t));
    }
  }
}

SimulationResult HierarchySimulator::run(const TraceProgram& trace) {
  return run(MaterializedTraceSource(trace));
}

}  // namespace flo::storage
