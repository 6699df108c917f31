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
  io_dirty_.resize(cfg.io_nodes);
  storage_dirty_.resize(cfg.storage_nodes);
}

void HierarchySimulator::mark_io_dirty(NodeId io, BlockKey key) {
  io_dirty_[io].insert(key.packed());
}

double HierarchySimulator::on_io_eviction(NodeId io, BlockKey victim,
                                          SimulationResult& result) {
  // Write-back: a dirty victim is shipped down to its storage cache; a
  // clean one is simply dropped. A block may be cached dirty in several
  // I/O caches; only this cache's copy is being evicted.
  if (io_dirty_[io].erase(victim.packed()) == 0) return 0;
  double t = network_.demotion();
  ++result.writebacks;
  const auto& cfg = topology_.config();
  const NodeId node = striping_.storage_node_of(victim);
  if (cfg.storage_cache_enabled) {
    storage_insert(node, victim, result);
    storage_dirty_[node].insert(victim.packed());
  } else {
    t += disks_.service(node, striping_.lba_of(victim));
    ++result.disk_writes;
  }
  return t;
}

void HierarchySimulator::storage_insert(NodeId node, BlockKey key,
                                        SimulationResult& result) {
  LruCache& cache = storage_caches_[node];
  std::optional<BlockKey> victim;
  if (qos_partitioning_) {
    const bool was_resident = cache.contains(key);
    victim = cache.insert(key, qos_owner());
    qos_note_insert(was_resident, victim.has_value(),
                    &TenantStats::storage_evictions, result);
  } else {
    victim = cache.insert(key);
  }
  ++result.storage.fills;
  result.storage.bytes_filled += topology_.config().block_size;
  if (victim) {
    ++result.storage.evictions;
    if (topology_.config().model_writes) {
      // The write-back cost of a storage-level dirty eviction is accounted
      // by the next request via pending_writeback_cost_.
      if (storage_dirty_[node].erase(victim->packed()) != 0) {
        pending_writeback_cost_ +=
            disks_.peek_service(node, striping_.lba_of(*victim));
        ++pending_writeback_count_;
        disks_.advance_head(node, striping_.lba_of(*victim));
      }
    }
  }
}

std::optional<BlockKey> HierarchySimulator::io_insert(
    NodeId io, BlockKey key, SimulationResult& result) {
  LruCache& cache = io_caches_[io];
  std::optional<BlockKey> victim;
  if (qos_partitioning_) {
    const bool was_resident = cache.contains(key);
    victim = cache.insert(key, qos_owner());
    qos_note_insert(was_resident, victim.has_value(),
                    &TenantStats::io_evictions, result);
  } else {
    victim = cache.insert(key);
  }
  ++result.io.fills;
  result.io.bytes_filled += topology_.config().block_size;
  if (victim) ++result.io.evictions;
  return victim;
}

bool HierarchySimulator::storage_erase(NodeId node, BlockKey key) {
  if (qos_partitioning_) {
    // DEMOTE's exclusive erase frees the owning tenant's quota charge.
    const std::optional<std::uint32_t> owner =
        storage_caches_[node].owner_of(key);
    if (owner && *owner < qos_occ_.size() && qos_occ_[*owner] > 0) {
      --qos_occ_[*owner];
    }
  }
  return storage_caches_[node].erase(key);
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
  if (io_caches_[r.io].touch(r.key)) {
    ++result.io.hits;
    if (r.is_write) mark_io_dirty(r.io, r.key);
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
    storage_erase(r.node, r.key);
  }
}

void HierarchySimulator::disk_read_done(const Request& r,
                                        SimulationResult& result) {
  ++result.disk_reads;
  if (r.route == Route::kKarmaIo) {
    io_insert(r.io, r.key, result);
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
  const std::optional<BlockKey> victim = io_insert(r.io, r.key, result);
  if (r.is_write) mark_io_dirty(r.io, r.key);
  if (!victim) return;
  if (topology_.config().model_writes) {
    t += on_io_eviction(r.io, *victim, result);
  }
  if (policy_ == PolicyKind::kDemoteLru) {
    // Ship the evicted block down instead of dropping it (Wong & Wilkes).
    storage_insert(striping_.storage_node_of(*victim), *victim, result);
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
  for (std::uint32_t tenant : tenant_of_thread) {
    if (tenant >= tenant_count) {
      throw std::invalid_argument("HierarchySimulator: tenant id out of range");
    }
  }
  tenant_of_thread_ = std::move(tenant_of_thread);
  tenant_count_ = tenant_of_thread_.empty() ? 0 : tenant_count;
}

void HierarchySimulator::tenant_settle(SimulationResult& result) {
  if (!tenant_scope_.open) return;
  TenantStats& slice = result.tenants[tenant_scope_.tenant];
  slice.accesses += result.accesses - tenant_scope_.accesses;
  slice.elements += result.elements - tenant_scope_.elements;
  slice.io_lookups += result.io.lookups - tenant_scope_.io_lookups;
  slice.io_hits += result.io.hits - tenant_scope_.io_hits;
  slice.storage_lookups += result.storage.lookups -
                           tenant_scope_.storage_lookups;
  slice.storage_hits += result.storage.hits - tenant_scope_.storage_hits;
  slice.disk_reads += result.disk_reads - tenant_scope_.disk_reads;
  slice.bytes_filled += result.io.bytes_filled + result.storage.bytes_filled -
                        tenant_scope_.bytes_filled;
  tenant_scope_.open = false;
}

void HierarchySimulator::tenant_open(std::uint32_t tenant,
                                     SimulationResult& result) {
  tenant_scope_.open = true;
  tenant_scope_.tenant = tenant;
  tenant_scope_.accesses = result.accesses;
  tenant_scope_.elements = result.elements;
  tenant_scope_.io_lookups = result.io.lookups;
  tenant_scope_.io_hits = result.io.hits;
  tenant_scope_.storage_lookups = result.storage.lookups;
  tenant_scope_.storage_hits = result.storage.hits;
  tenant_scope_.disk_reads = result.disk_reads;
  tenant_scope_.bytes_filled =
      result.io.bytes_filled + result.storage.bytes_filled;
}

void HierarchySimulator::tenant_switch(std::uint32_t thread,
                                       SimulationResult& result) {
  if (!tenants_enabled()) return;
  // Dynamic-share epoch boundaries are driven by the virtual access
  // counter and checked here because both cores funnel every scheduling
  // step through tenant_switch; one compare when the mode is off.
  if (qos_epoch_next_ != 0 && result.accesses >= qos_epoch_next_) {
    maybe_rebalance_qos(result);
  }
  const std::uint32_t tenant = tenant_of_thread_[thread];
  if (tenant_scope_.open && tenant_scope_.tenant == tenant) return;
  tenant_settle(result);
  tenant_open(tenant, result);
}

void HierarchySimulator::tenant_finish(SimulationResult& result) {
  if (!tenants_enabled()) return;
  tenant_settle(result);
  const std::size_t threads =
      std::min(tenant_of_thread_.size(), result.thread_time.size());
  for (std::size_t t = 0; t < threads; ++t) {
    result.tenants[tenant_of_thread_[t]].busy_time += result.thread_time[t];
  }
  if (qos_partitioning_) {
    const std::size_t n =
        std::min<std::size_t>(result.tenants.size(), qos_occ_peak_.size());
    for (std::size_t t = 0; t < n; ++t) {
      result.tenants[t].occupancy_peak = qos_occ_peak_[t];
    }
  }
}

std::uint32_t HierarchySimulator::qos_priority_of_thread(
    std::uint32_t thread) const {
  const QosConfig& qos = topology_.config().qos;
  if (!qos.enabled || qos.priorities.empty() || !tenants_enabled() ||
      thread >= tenant_of_thread_.size()) {
    return 1;
  }
  const std::uint32_t tenant = tenant_of_thread_[thread];
  return tenant < qos.priorities.size() ? qos.priorities[tenant] : 1;
}

void HierarchySimulator::qos_note_insert(
    bool was_resident, bool evicted, std::uint64_t TenantStats::*evictions,
    SimulationResult& result) {
  const std::uint32_t owner = tenant_scope_.tenant;
  if (evicted) {
    // The victim came from the owner's own partition, so net occupancy is
    // unchanged and the eviction is the owner's — that is the attribution
    // guarantee partitioning buys.
    if (owner < result.tenants.size()) ++(result.tenants[owner].*evictions);
  } else if (!was_resident && owner < qos_occ_.size()) {
    if (++qos_occ_[owner] > qos_occ_peak_[owner]) {
      qos_occ_peak_[owner] = qos_occ_[owner];
    }
  }
}

void HierarchySimulator::apply_qos_partitions() {
  const QosConfig& qos = topology_.config().qos;
  qos_partitioning_ = qos.enabled && !qos.shares.empty() &&
                      tenants_enabled() && policy_ != PolicyKind::kKarma;
  qos_epoch_next_ = 0;
  if (!qos_partitioning_) {
    // Previous runs may have left partitions behind (set_tenants can
    // change between runs on one simulator): return to global caches.
    for (auto& c : io_caches_) c.set_partitions({});
    for (auto& c : storage_caches_) c.set_partitions({});
    qos_io_quota_.clear();
    qos_storage_quota_.clear();
    qos_prev_misses_.clear();
    qos_occ_.clear();
    qos_occ_peak_.clear();
    return;
  }
  qos.validate();
  if (qos.shares.size() < tenant_count_) {
    throw std::invalid_argument(
        "HierarchySimulator: fewer QoS shares than tenants");
  }
  qos_io_quota_ =
      quota_partition(topology_.io_cache_blocks(), tenant_count_, qos.shares);
  qos_storage_quota_ = quota_partition(topology_.storage_cache_blocks(),
                                       tenant_count_, qos.shares);
  for (auto& c : io_caches_) c.set_partitions(qos_io_quota_);
  for (auto& c : storage_caches_) c.set_partitions(qos_storage_quota_);
  qos_prev_misses_.assign(tenant_count_, 0);
  qos_occ_.assign(tenant_count_, 0);
  qos_occ_peak_.assign(tenant_count_, 0);
  if (qos.dynamic_shares) qos_epoch_next_ = qos.epoch_accesses;
}

namespace {

/// Largest-remainder split of `amount` units by `weights` (no floor:
/// zero-weight entries get nothing unless every positive-weight entry has
/// been topped up). Deterministic: ties break by lower index.
std::vector<std::size_t> apportion_slack(
    std::size_t amount, const std::vector<std::uint64_t>& weights) {
  std::vector<std::size_t> out(weights.size(), 0);
  std::uint64_t total = 0;
  for (std::uint64_t w : weights) total += w;
  if (total == 0 || amount == 0) return out;
  std::vector<std::pair<std::uint64_t, std::size_t>> rem(weights.size());
  std::size_t granted = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    const std::uint64_t scaled =
        static_cast<std::uint64_t>(amount) * weights[i];
    out[i] = static_cast<std::size_t>(scaled / total);
    rem[i] = {scaled % total, i};
    granted += out[i];
  }
  std::sort(rem.begin(), rem.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  for (std::size_t i = 0; granted < amount; ++i) {
    ++out[rem[i % rem.size()].second];
    ++granted;
  }
  return out;
}

}  // namespace

void HierarchySimulator::maybe_rebalance_qos(SimulationResult& result) {
  const auto& cfg = topology_.config();
  const QosConfig& qos = cfg.qos;
  while (qos_epoch_next_ <= result.accesses) {
    qos_epoch_next_ += qos.epoch_accesses;
  }
  // Per-tenant miss counters must be current at the boundary: settle the
  // open scope, then reopen it so attribution continues seamlessly.
  if (tenant_scope_.open) {
    const std::uint32_t cur = tenant_scope_.tenant;
    tenant_settle(result);
    tenant_open(cur, result);
  }
  // The marginal-gain signal: misses suffered during this epoch, per
  // tenant — the same observed-pressure signal KARMA uses per range
  // class, applied to capacity shares.
  std::vector<std::uint64_t> gain(tenant_count_, 0);
  std::uint64_t total_gain = 0;
  for (std::uint32_t t = 0; t < tenant_count_; ++t) {
    const TenantStats& s = result.tenants[t];
    const std::uint64_t misses = (s.io_lookups - s.io_hits) +
                                 (s.storage_lookups - s.storage_hits);
    gain[t] = misses - qos_prev_misses_[t];
    qos_prev_misses_[t] = misses;
    total_gain += gain[t];
  }
  if (total_gain == 0) return;  // no pressure anywhere: keep the quotas

  // Guaranteed floor: half the static quota (at least one block). The
  // slack above the floors is what the epoch's miss pressure contends for.
  const auto rebalanced = [&](const std::vector<std::size_t>& statiq,
                              std::size_t capacity) {
    std::vector<std::size_t> quota(tenant_count_);
    std::size_t floored = 0;
    for (std::uint32_t t = 0; t < tenant_count_; ++t) {
      quota[t] = std::max<std::size_t>(1, statiq[t] / 2);
      floored += quota[t];
    }
    if (floored >= capacity) return statiq;  // degenerate tiny cache
    const std::vector<std::size_t> extra =
        apportion_slack(capacity - floored, gain);
    for (std::uint32_t t = 0; t < tenant_count_; ++t) quota[t] += extra[t];
    return quota;
  };
  const std::vector<std::size_t> io_quota =
      rebalanced(qos_io_quota_, topology_.io_cache_blocks());
  const std::vector<std::size_t> st_quota =
      rebalanced(qos_storage_quota_, topology_.storage_cache_blocks());

  // Applies one layer's new quotas, shrinking before growing so the quota
  // sum never exceeds capacity. A dirty trim victim is written straight
  // down to disk in the background (deferred to the next request, like
  // storage-eviction write-backs): the rebalance just ruled its tenant
  // over-provisioned, so it is not re-inserted below.
  const auto trim = [&](std::vector<LruCache>& caches,
                        const std::vector<std::size_t>& quota,
                        std::vector<std::unordered_set<std::uint64_t>>& dirty,
                        LayerStats& layer,
                        std::uint64_t TenantStats::*evictions) {
    for (std::size_t i = 0; i < caches.size(); ++i) {
      LruCache& cache = caches[i];
      for (std::uint32_t t = 0; t < tenant_count_; ++t) {
        if (quota[t] >= cache.partition_quota(t)) continue;
        for (BlockKey victim : cache.set_partition_quota(t, quota[t])) {
          ++layer.evictions;
          if (t < result.tenants.size()) ++(result.tenants[t].*evictions);
          if (qos_occ_[t] > 0) --qos_occ_[t];
          if (!cfg.model_writes || dirty[i].erase(victim.packed()) == 0) {
            continue;
          }
          ++result.writebacks;
          const NodeId node = striping_.storage_node_of(victim);
          const std::uint64_t lba = striping_.lba_of(victim);
          pending_writeback_cost_ += disks_.peek_service(node, lba);
          ++pending_writeback_count_;
          disks_.advance_head(node, lba);
        }
      }
      for (std::uint32_t t = 0; t < tenant_count_; ++t) {
        if (quota[t] > cache.partition_quota(t)) {
          cache.set_partition_quota(t, quota[t]);
        }
      }
    }
  };
  trim(io_caches_, io_quota, io_dirty_, result.io,
       &TenantStats::io_evictions);
  trim(storage_caches_, st_quota, storage_dirty_, result.storage,
       &TenantStats::storage_evictions);
}

void HierarchySimulator::settle_trailing_writebacks(SimulationResult& result) {
  if (pending_writeback_count_ == 0 && pending_writeback_cost_ <= 0) return;
  result.exec_time += pending_writeback_cost_;
  result.disk_writes += pending_writeback_count_;
  pending_writeback_cost_ = 0;
  pending_writeback_count_ = 0;
}

void HierarchySimulator::prepare_run(const TraceSource& source) {
  if (source.thread_count() > io_node_of_thread_.size()) {
    throw std::invalid_argument("HierarchySimulator: more traces than threads");
  }
  if (tenants_enabled() &&
      tenant_of_thread_.size() < source.thread_count()) {
    throw std::invalid_argument(
        "HierarchySimulator: tenant map shorter than trace streams");
  }
  tenant_scope_ = TenantScope{};
  striping_ = Striping(topology_.config().storage_nodes, source.file_blocks());
  disks_ = DiskArray(topology_.config().storage_nodes,
                     topology_.config().disk, topology_.config().block_size);
  stream_pos_.clear();
  for (auto& d : io_dirty_) d.clear();
  for (auto& d : storage_dirty_) d.clear();
  pending_writeback_cost_ = 0;
  pending_writeback_count_ = 0;
  for (auto& c : io_caches_) c.clear();
  for (auto& c : storage_caches_) c.clear();
  apply_qos_partitions();
  faults_.reset();  // replay the identical fault stream on every run
}

SimulationResult HierarchySimulator::run(const TraceSource& source) {
  prepare_run(source);
  if (core_ == SimCoreKind::kEvent) {
    EventEngine engine(*this);
    return engine.run(source);
  }
  return run_clock(source);
}

SimulationResult HierarchySimulator::run_clock(const TraceSource& source) {
  SimulationResult result;
  if (tenants_enabled()) result.tenants.resize(tenant_count_);
  const std::size_t threads = io_node_of_thread_.size();
  std::vector<double> clock(threads, 0.0);
  std::vector<double> busy(threads, 0.0);
  const std::size_t streams = source.thread_count();

  // Virtual-clock observability lane: one per simulated run, so phase
  // spans from concurrently simulating cells land on distinct Chrome-trace
  // rows. Timestamps are the deterministic virtual clocks, not wall time.
  const bool tracing = obs::enabled();
  std::uint32_t lane = 0;
  if (tracing) {
    static std::atomic<std::uint32_t> next_lane{0};
    lane = next_lane.fetch_add(1);
  }

  // Min-clock-first scheduler over packed (clock, thread id) keys
  // (storage/packed_heap.hpp); empty between phases.
  PackedHeap<HeapKey> heap;
  for (std::size_t p = 0; p < source.phase_count(); ++p) {
    for (std::uint32_t rep = 0; rep < source.phase_repeat(p); ++rep) {
      // All clocks are barrier-aligned here, so clock[0] is the phase start.
      const double phase_start = clock.empty() ? 0.0 : clock[0];
      // Min-clock-first scheduling with thread id tiebreak: deterministic
      // and approximates concurrent execution against the shared caches.
      // Each thread holds exactly one buffered event (its CursorPump);
      // resident
      // trace state is O(threads) regardless of trace length. Multi-block
      // extents (AccessEvent::run_blocks) are split here: every block is
      // one scheduling step, so interleaving against other threads is
      // identical to a per-block event stream.
      std::vector<CursorPump> pumps;
      pumps.reserve(streams);
      for (std::uint32_t t = 0; t < streams; ++t) {
        pumps.emplace_back(source.open(p, t));
        if (pumps[t].prime()) heap.push(pack_key(clock[t], t));
      }
      while (!heap.empty()) {
        // The running thread stays at the root while it runs; the smallest
        // key below it is its budget.
        const HeapKey top = heap.top();
        const auto t = static_cast<std::uint32_t>(key_low(top));
        const HeapKey budget = heap.runner_up();
        double now = key_time(top);
        tenant_switch(t, result);
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
        // A stopped thread takes its new key down in one sift; the heap
        // pops only when the thread's stream ends.
        if (finished) {
          heap.pop();
        } else {
          heap.replace_top(pack_key(now, t));
        }
      }
      // Bulk-synchronous barrier between nests / repetitions.
      const double barrier = *std::max_element(clock.begin(), clock.end());
      for (auto& c : clock) c = barrier;
      if (tracing) {
        obs::record_virtual_span(
            "sim.phase", "sim", lane, phase_start, barrier - phase_start,
            {{"phase", std::to_string(p)}, {"rep", std::to_string(rep)}});
      }
    }
  }

  result.exec_time = clock.empty() ? 0.0
                                   : *std::max_element(clock.begin(),
                                                       clock.end());
  result.thread_time = std::move(busy);
  tenant_finish(result);
  settle_trailing_writebacks(result);
  return result;
}

SimulationResult HierarchySimulator::run(const TraceProgram& trace) {
  return run(MaterializedTraceSource(trace));
}

}  // namespace flo::storage
