// Trace-driven hierarchical storage-cache simulator.
//
// Threads issue block requests that flow compute node -> I/O-node cache ->
// storage-node cache -> disk. Caches are shared according to the topology's
// grouping; striping decides which storage node (and disk LBA) serves each
// block. Threads advance on private virtual clocks; the scheduler always
// steps the thread with the smallest clock, so interleaving (and therefore
// shared-cache contention) is modeled deterministically. A barrier aligns
// all clocks between phases (loop nests), matching the bulk-synchronous
// structure of the MPI-IO applications in the paper.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "storage/disk_model.hpp"
#include "storage/fault_model.hpp"
#include "storage/karma.hpp"
#include "storage/lru_cache.hpp"
#include "storage/network_model.hpp"
#include "storage/packed_heap.hpp"
#include "storage/policy.hpp"
#include "storage/sim_core.hpp"
#include "storage/stats.hpp"
#include "storage/striping.hpp"
#include "storage/topology.hpp"
#include "storage/trace_source.hpp"

namespace flo::storage {

/// Facade over the two simulation cores, which share one request path.
/// Every policy decision is a hop of this class (begin_request, io_lookup,
/// storage_faults, storage_lookup, storage_hit_done, disk_read_done,
/// fill_io) acting on one Request record. The clock core (this class's own
/// scheduling loop, the golden reference) charges the hops inline in
/// service(); the event core (storage/event_core.hpp) calls the same hops
/// at its event boundaries and adds only queueing at the shared
/// components. FLO_SIM (or set_core) selects which one run() drives.
class HierarchySimulator {
 public:
  /// `io_node_of_thread[t]` is the I/O node serving thread t (derived from
  /// the thread -> compute-node mapping by the caller). `hints` are only
  /// consulted by the KARMA policy.
  HierarchySimulator(StorageTopology topology, PolicyKind policy,
                     std::vector<NodeId> io_node_of_thread,
                     std::vector<RangeHint> hints = {});

  /// Simulates the source's event streams from cold caches and returns
  /// aggregate results. Events are pulled one at a time through per-thread
  /// cursors, so memory stays O(threads) when the source generates lazily.
  SimulationResult run(const TraceSource& source);

  /// Convenience wrapper: simulates a materialized trace (adapts it
  /// through MaterializedTraceSource; behaviour is bit-identical).
  SimulationResult run(const TraceProgram& trace);

  /// Extent fast paths on/off (default: the FLO_EXTENTS environment knob,
  /// on unless set to "0"). Off forces every multi-block event through the
  /// per-block reference path; results are bit-identical either way — the
  /// switch exists so the equivalence suite and benchmarks can pin a path.
  void set_extent_batching(bool enabled) { extent_batching_ = enabled; }
  bool extent_batching() const { return extent_batching_; }

  /// Simulation core selection (default: the FLO_SIM environment knob,
  /// clock unless set to "event"). The clock core is the golden reference;
  /// the event core models queueing at shared components and is held to it
  /// by the event-vs-clock fuzz oracle inside the equivalence envelope
  /// (DESIGN.md §4g).
  void set_core(SimCoreKind core) { core_ = core; }
  SimCoreKind core() const { return core_; }

  /// Multi-tenant attribution (DESIGN.md §4j): `tenant_of_thread[t]` names
  /// the tenant that owns simulator thread t (interleaver slot t when the
  /// source is an InterleavedTraceSource). When set, run() sizes
  /// SimulationResult::tenants to `tenant_count` and attributes each
  /// counter delta to the tenant whose thread is being serviced; aggregate
  /// fields are untouched, so an N=1 tenant map leaves everything but the
  /// `tenants` vector bit-identical to an unattributed run (pinned by the
  /// tenant-isolation fuzz oracle). Pass an empty map to turn it off.
  void set_tenants(std::vector<std::uint32_t> tenant_of_thread,
                   std::uint32_t tenant_count);

 private:
  friend class EventEngine;  ///< the event core drives the same state

  /// Resets all mutable per-run state (caches, disks, striping, fault
  /// stream, write-back bookkeeping) so either core starts cold.
  void prepare_run(const TraceSource& source);

  /// The clock core: min-clock-first scheduling over packed (clock,
  /// thread id) keys, with inline continuation and the extent fast paths.
  SimulationResult run_clock(const TraceSource& source);

  /// Services one single-block request (`event.run_blocks` is ignored;
  /// run() splits extents before calling) issued by `thread` at virtual
  /// time `now` (the fault model needs `now` to resolve outage windows);
  /// returns elapsed seconds. This is the golden per-block reference path:
  /// the request-path hops below, charged inline.
  double service(std::uint32_t thread, double now, const AccessEvent& event,
                 SimulationResult& result);

  /// Extent fast path: services as many leading blocks of `ev` as stay
  /// within (a) a bulk-eligible flow — a resident I/O-cache run, or a
  /// cache-less disk stream — and (b) the scheduler budget (the thread's
  /// packed (clock, id) key must stay strictly below `budget`, the
  /// smallest key of every other runnable thread).
  /// Advances `now`, `busy` and `ev` in place and returns the number of
  /// blocks consumed; 0 means the head block must take the per-block
  /// reference path. Charged times and recorded stats are bit-identical
  /// to servicing each block through service().
  std::uint32_t service_extent_bulk(std::uint32_t thread, AccessEvent& ev,
                                    double& now, double& busy,
                                    HeapKey budget, SimulationResult& result);

  /// Settles disk heads and read counts for the blocks [first, first +
  /// len) of `file` after a cache-less sequential run charged them pure
  /// transfer time: one note per disk of the stripe cycle. Shared by the
  /// clock core's extent fast path and the event core's analytic phase.
  void settle_stream(FileId file, std::uint64_t first, std::uint64_t len);

  /// --- the request path (both cores) -----------------------------------
  /// Which path a request takes through the hierarchy, fixed by
  /// begin_request.
  enum class Route : std::uint8_t {
    kIo,            ///< LRU/DEMOTE flow through the I/O cache
    kDirect,        ///< I/O cache disabled or offline: storage level only
    kKarmaIo,       ///< KARMA range pinned at the I/O level
    kKarmaStorage,  ///< KARMA range pinned at the storage level
    kKarmaDirect,   ///< KARMA uncached range (or pinned cache offline)
  };

  /// One block request in flight.
  struct Request {
    BlockKey key;
    Route route = Route::kIo;
    bool is_write = false;  ///< modelled write (KARMA models none)
    /// Skips the storage cache: disabled, offline, out of fabric retries,
    /// or a KARMA range placed elsewhere.
    bool bypass = false;
    NodeId io = 0;          ///< serving I/O node
    NodeId node = 0;        ///< storage node (== disk); set below the I/O level
    std::uint64_t lba = 0;  ///< set with `node`
    double issue = 0;       ///< issue time (outage windows, busy time)
    /// Event core only: storage-arrival fault logic done, and the arrival
    /// time at the queue the request waits in.
    bool faults_resolved = false;
    double arrival = 0;
  };

  /// First hop: counts the access, takes any deferred write-back charge,
  /// and routes the request (KARMA range class, I/O and storage outages).
  /// Resets `r` and returns the front charge (compute, the compute <-> I/O
  /// hop and the write-back).
  double begin_request(std::uint32_t thread, double now,
                       const AccessEvent& event, Request& r,
                       SimulationResult& result);
  /// I/O-cache lookup (routes kIo, kKarmaIo). A hit promotes the block
  /// and dirties it on a write; a miss locates the storage node and LBA.
  bool io_lookup(Request& r, SimulationResult& result);
  /// Storage-fabric faults on an LRU/DEMOTE request reaching the storage
  /// level: an outage or an exhausted retry budget sets `r.bypass`; each
  /// retry's backoff is added to `t`.
  void storage_faults(Request& r, double& t, SimulationResult& result);
  /// Storage-cache lookup of a request that does not bypass it.
  bool storage_lookup(const Request& r, SimulationResult& result);
  /// Storage-hit epilogue: the readahead step, then DEMOTE's exclusive
  /// erase (the block moves up to the client).
  void storage_hit_done(const Request& r, SimulationResult& result);
  /// Disk-read epilogue: counts the read and applies the route's fill
  /// (KARMA's I/O placement, or the inclusive storage fill and readahead).
  void disk_read_done(const Request& r, SimulationResult& result);
  /// I/O-cache fill of a kIo request that missed, then the victim's
  /// write-back and DEMOTE demotion, each added to `t` in that order.
  void fill_io(const Request& r, double& t, SimulationResult& result);

  /// One fault-aware disk read: transient failures retried with backoff
  /// (charged to the caller's clock) and slow-disk latency spikes, per the
  /// topology's FaultConfig. Reduces to DiskArray::service when faults
  /// are off.
  double disk_read(NodeId node, std::uint64_t lba, SimulationResult& result);

  /// Sequential-stream detection per (node, file) and readahead into the
  /// node's storage cache (TopologyConfig::prefetch_depth), after a
  /// storage hit or a disk read of `key`. `staging_allowed` false keeps
  /// the detector moving but stages nothing (the cache is bypassed).
  void advance_stream(BlockKey key, NodeId node, bool staging_allowed,
                      SimulationResult& result);

  StorageTopology topology_;
  PolicyKind policy_;
  std::vector<NodeId> io_node_of_thread_;
  KarmaAllocator karma_;
  NetworkModel network_;
  /// Seeded fault decision stream (topology_.config().fault); rewound at
  /// the start of every run() so repeated runs replay identical faults.
  FaultPlan faults_;

  /// Cache inserts book fills/evictions into the per-layer stats of
  /// `result`, and the owner's occupancy when partitioned. A storage
  /// victim's dirty write-back is deferred to the next request; the I/O
  /// victim (if any) is returned for write-back/demotion.
  void storage_insert(NodeId node, BlockKey key, SimulationResult& result);
  bool storage_erase(NodeId node, BlockKey key);
  std::optional<BlockKey> io_insert(NodeId io, BlockKey key,
                                    SimulationResult& result);

  /// Write-back bookkeeping (TopologyConfig::model_writes).
  void mark_io_dirty(NodeId io, BlockKey key);
  double on_io_eviction(NodeId io, BlockKey victim, SimulationResult& result);

  /// End-of-run drain of the deferred write-back ledger: charges any
  /// still-pending storage-eviction write-backs to total time and counts
  /// them in disk_writes. Without this a trace ending in a write silently
  /// dropped its trailing write-back (the "next request" it was deferred
  /// to never arrived). Runs after the final barrier, so per-thread busy
  /// times are not touched — the drain is background device work.
  void settle_trailing_writebacks(SimulationResult& result);

  /// --- tenant QoS (TopologyConfig::qos, DESIGN.md §4k) ------------------
  /// Cache partitioning is active only when qos.enabled, qos.shares is
  /// non-empty, tenancy is on, and the policy is not KARMA (whose range
  /// classes are already a capacity-partitioning scheme). Both cores
  /// inherit it through the shared primitives below.
  bool qos_partitioning() const { return qos_partitioning_; }
  /// The tenant charged for the block being serviced right now — the open
  /// attribution scope's tenant (both cores call tenant_switch before
  /// servicing, so the scope is always current here).
  std::uint32_t qos_owner() const {
    return qos_partitioning_ ? tenant_scope_.tenant : 0;
  }
  /// Disk-scheduling priority of a thread's tenant (>= 1; 1 when QoS or
  /// tenancy is off, or no priority vector was given).
  std::uint32_t qos_priority_of_thread(std::uint32_t thread) const;
  /// Applies (or removes) per-tenant partitions on every cache; called
  /// from prepare_run after the caches are cleared.
  void apply_qos_partitions();
  /// Dynamic-share epoch boundary check: every qos.epoch_accesses block
  /// requests, reassigns each cache's slack above the guaranteed floors in
  /// proportion to the misses each tenant suffered during the epoch.
  void maybe_rebalance_qos(SimulationResult& result);
  /// Per-tenant occupancy/eviction bookkeeping of one partitioned insert;
  /// `evictions` names the layer's TenantStats eviction counter.
  void qos_note_insert(bool was_resident, bool evicted,
                       std::uint64_t TenantStats::*evictions,
                       SimulationResult& result);

  /// --- per-tenant attribution ledger (set_tenants) ----------------------
  /// Counter deltas are attributed scope-to-scope: tenant_switch(t) settles
  /// everything incremented since the previous switch into the previous
  /// scope's tenant and snapshots the attributed aggregates. Both cores
  /// call it whenever the serviced thread changes; cost is one integer
  /// compare per call when tenancy is off.
  bool tenants_enabled() const { return !tenant_of_thread_.empty(); }
  void tenant_switch(std::uint32_t thread, SimulationResult& result);
  /// Settles the open scope's counter deltas into its tenant's slice.
  void tenant_settle(SimulationResult& result);
  /// Opens a fresh attribution scope for `tenant` (snapshotting the
  /// aggregates); factored out of tenant_switch so the QoS rebalancer can
  /// settle-and-reopen at an epoch boundary without losing attribution.
  void tenant_open(std::uint32_t tenant, SimulationResult& result);
  /// Settles the open scope (if any) and fills per-tenant busy_time from
  /// result.thread_time; called once per run after the final barrier.
  void tenant_finish(SimulationResult& result);

  struct TenantScope {
    bool open = false;
    std::uint32_t tenant = 0;
    std::uint64_t accesses = 0;
    std::uint64_t elements = 0;
    std::uint64_t io_lookups = 0;
    std::uint64_t io_hits = 0;
    std::uint64_t storage_lookups = 0;
    std::uint64_t storage_hits = 0;
    std::uint64_t disk_reads = 0;
    std::uint64_t bytes_filled = 0;
  };

  std::vector<LruCache> io_caches_;       ///< one per I/O node
  std::vector<LruCache> storage_caches_;  ///< one per storage node
  Striping striping_;
  DiskArray disks_;
  /// Dirty-block sets per layer (packed keys), used when model_writes.
  std::vector<std::unordered_set<std::uint64_t>> io_dirty_;
  std::vector<std::unordered_set<std::uint64_t>> storage_dirty_;
  double pending_writeback_cost_ = 0;       ///< charged to the next request
  std::uint64_t pending_writeback_count_ = 0;
  /// Per-(node, file) last block index — the readahead stream detector
  /// (real readahead tracks file streams, which survive interleaving).
  std::unordered_map<std::uint64_t, std::uint64_t> stream_pos_;
  bool extent_batching_ = extents_enabled();
  SimCoreKind core_ = sim_core_from_env();
  /// Multi-tenant attribution state (empty tenant_of_thread_ = off).
  std::vector<std::uint32_t> tenant_of_thread_;
  std::uint32_t tenant_count_ = 0;
  TenantScope tenant_scope_;

  /// --- tenant QoS runtime state (prepare_run resets all of it) ----------
  bool qos_partitioning_ = false;
  /// Static quotas per cache capacity class (io / storage), recomputed
  /// each run; the dynamic rebalancer's floors derive from these.
  std::vector<std::size_t> qos_io_quota_;
  std::vector<std::size_t> qos_storage_quota_;
  std::uint64_t qos_epoch_next_ = 0;  ///< next rebalance boundary (accesses)
  /// Miss totals per tenant at the previous epoch boundary, for deltas.
  std::vector<std::uint64_t> qos_prev_misses_;
  /// Per-tenant resident-block totals across all caches, and their peaks
  /// (reported as TenantStats::occupancy_peak).
  std::vector<std::uint64_t> qos_occ_;
  std::vector<std::uint64_t> qos_occ_peak_;
};

}  // namespace flo::storage
