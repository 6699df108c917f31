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
#include "storage/qos.hpp"
#include "storage/sim_core.hpp"
#include "storage/stats.hpp"
#include "storage/striping.hpp"
#include "storage/tenant_ledger.hpp"
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

  /// Per-run state: the driver (run) owns it, and either core advances it
  /// one phase at a time.
  struct RunState {
    SimulationResult result;
    std::vector<double> clock;  ///< per-thread virtual clocks
    std::vector<double> busy;   ///< per-thread busy time
    std::vector<CursorPump> pumps;      ///< per stream, primed each phase
    std::vector<std::uint32_t> active;  ///< primed non-empty streams
  };

  /// The clock core's phase: min-clock-first scheduling over packed
  /// (clock, thread id) keys, with inline continuation and the extent
  /// fast paths.
  void run_clock_phase(RunState& run);

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
  /// victim (if any) is returned, with its dirty bit, for
  /// write-back/demotion.
  std::optional<Victim> cache_insert(LruCache& cache, LayerStats& layer,
                                     std::uint64_t TenantStats::*evictions,
                                     BlockKey key, bool dirty,
                                     SimulationResult& result);
  void storage_insert(NodeId node, BlockKey key, SimulationResult& result);
  std::optional<Victim> io_insert(NodeId io, BlockKey key, bool dirty,
                                  SimulationResult& result) {
    return cache_insert(io_caches_[io], result.io, &TenantStats::io_evictions,
                        key, dirty, result);
  }

  /// Write-back bookkeeping (TopologyConfig::model_writes): an I/O block's
  /// dirty state is its cache entry's bit; a storage block's is
  /// storage_dirty_.
  double on_io_eviction(const Victim& victim, SimulationResult& result);
  /// Defers a dirty victim's write-back on disk `node` to the next
  /// request's charge; the head moves as the background write moves it.
  void defer_writeback(NodeId node, BlockKey victim);

  /// Attribution boundary: both cores call this whenever the serviced
  /// thread changes. A due dynamic-share epoch rebalances first, then the
  /// ledger's open scope moves to the thread's tenant. One compare when
  /// tenancy is off.
  void attribute(std::uint32_t thread, SimulationResult& result) {
    if (!ledger_.enabled()) return;
    if (partitioner_.epoch_due(result.accesses)) rebalance(result);
    ledger_.switch_to(thread, result);
  }
  /// Dynamic-share epoch boundary: settles the ledger so per-tenant misses
  /// are current, lets the partitioner move the quotas, and books every
  /// trimmed block as an eviction, deferring dirty ones' write-backs.
  void rebalance(SimulationResult& result);

  std::vector<LruCache> io_caches_;       ///< one per I/O node
  std::vector<LruCache> storage_caches_;  ///< one per storage node
  Striping striping_;
  DiskArray disks_;
  /// Dirty storage-cache blocks per storage node (packed keys), used when
  /// model_writes. A set, not the entry bit: DEMOTE's exclusive erase
  /// leaves a block's mark behind, and a later eviction of the refilled
  /// block still writes it back.
  std::vector<std::unordered_set<std::uint64_t>> storage_dirty_;
  double pending_writeback_cost_ = 0;       ///< charged to the next request
  std::uint64_t pending_writeback_count_ = 0;
  /// Per-(node, file) last block index — the readahead stream detector
  /// (real readahead tracks file streams, which survive interleaving).
  std::unordered_map<std::uint64_t, std::uint64_t> stream_pos_;
  bool extent_batching_ = extents_enabled();
  SimCoreKind core_ = sim_core_from_env();
  TenantLedger ledger_;          ///< per-tenant attribution (set_tenants)
  QosPartitioner partitioner_;  ///< cache partitions (TopologyConfig::qos)
};

}  // namespace flo::storage
