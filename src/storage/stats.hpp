// Simulation statistics: per-layer hit counters and end-to-end results.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace flo::storage {

struct LayerStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t fills = 0;      ///< blocks inserted into this level
  std::uint64_t evictions = 0;  ///< blocks displaced to make room
  std::uint64_t bytes_filled = 0;  ///< bytes moved into this level by fills

  double hit_rate() const {
    return lookups == 0 ? 0.0 : static_cast<double>(hits) / lookups;
  }
  double miss_rate() const { return lookups == 0 ? 0.0 : 1.0 - hit_rate(); }
  std::uint64_t misses() const { return lookups - hits; }

  friend bool operator==(const LayerStats&, const LayerStats&) = default;
};

/// Fault accounting for one hierarchy layer (storage/fault_model.hpp).
/// All-zero when fault injection is disabled, keeping SimulationResult
/// equality with pre-fault baselines intact.
struct FaultLayerStats {
  std::uint64_t bypasses = 0;  ///< requests that skipped an offline cache
  std::uint64_t transient_failures = 0;  ///< failed read attempts (retried)
  std::uint64_t slow_services = 0;       ///< latency-spiked services
  double degraded_time = 0;  ///< extra virtual seconds charged by faults

  bool any() const {
    return bypasses != 0 || transient_failures != 0 || slow_services != 0 ||
           degraded_time != 0;
  }
  friend bool operator==(const FaultLayerStats&,
                         const FaultLayerStats&) = default;
};

struct FaultStats {
  FaultLayerStats io;       ///< I/O-cache layer (outage bypasses)
  FaultLayerStats storage;  ///< storage-cache layer (outages + fabric)
  FaultLayerStats disk;     ///< disk layer (transient failures, slow reads)
  /// Requests whose retry budget ran out (storage: bypassed to disk;
  /// disk: forced through, since there is no layer below).
  std::uint64_t exhausted_retries = 0;

  bool any() const {
    return io.any() || storage.any() || disk.any() || exhausted_retries != 0;
  }
  friend bool operator==(const FaultStats&, const FaultStats&) = default;
};

/// Contention accounting for one service queue of the event core (the
/// clock core has no queues and leaves these all-zero, keeping equality
/// with pre-event baselines intact). Depth counts waiters only — a request
/// in service is not "queued" — so an uncontended run reports zeros under
/// either core.
struct QueueLayerStats {
  std::uint64_t waits = 0;      ///< requests that had to queue
  double wait_time = 0;         ///< total virtual seconds spent queued
  std::uint64_t max_depth = 0;  ///< peak number of simultaneous waiters

  bool any() const { return waits != 0 || wait_time != 0 || max_depth != 0; }
  friend bool operator==(const QueueLayerStats&,
                         const QueueLayerStats&) = default;
};

struct QueueStats {
  QueueLayerStats io;       ///< shared I/O-node cache service queues
  QueueLayerStats storage;  ///< storage-node cache service queues
  QueueLayerStats disk;     ///< per-disk request queues (elevator order)

  bool any() const { return io.any() || storage.any() || disk.any(); }
  friend bool operator==(const QueueStats&, const QueueStats&) = default;
};

/// Per-tenant attribution for one multi-tenant (interleaved) run. Each
/// counter is the slice of the corresponding aggregate that was incremented
/// while one of this tenant's threads was being serviced, so summing any
/// field over all tenants reproduces the aggregate exactly (the interleaver
/// test suite pins this conservation law). Write-backs are deliberately not
/// attributed: a dirty eviction is background device traffic triggered by
/// whichever request happened to displace the block, not by its writer.
struct TenantStats {
  std::uint64_t accesses = 0;  ///< block requests issued by this tenant
  std::uint64_t elements = 0;  ///< element accesses represented
  std::uint64_t io_lookups = 0;
  std::uint64_t io_hits = 0;
  std::uint64_t storage_lookups = 0;
  std::uint64_t storage_hits = 0;
  std::uint64_t disk_reads = 0;
  /// Bytes filled into either cache layer on behalf of this tenant's
  /// requests (readahead staged by a tenant's stream counts toward it).
  std::uint64_t bytes_filled = 0;
  double busy_time = 0;  ///< summed busy seconds of this tenant's threads

  /// QoS cache-partitioning attribution (DESIGN.md §4k): only populated
  /// when per-tenant quotas are active — partitioning guarantees every
  /// victim comes from the inserting tenant's own partition, which is what
  /// makes eviction attribution exact. All-zero without QoS, keeping
  /// equality with pre-QoS baselines intact.
  std::uint64_t io_evictions = 0;       ///< evictions from this tenant's quota
  std::uint64_t storage_evictions = 0;  ///< ditto at the storage level
  std::uint64_t occupancy_peak = 0;     ///< peak resident blocks, all caches

  bool any() const {
    return accesses != 0 || elements != 0 || io_lookups != 0 ||
           storage_lookups != 0 || disk_reads != 0 || bytes_filled != 0 ||
           busy_time != 0 || io_evictions != 0 || storage_evictions != 0 ||
           occupancy_peak != 0;
  }
  friend bool operator==(const TenantStats&, const TenantStats&) = default;
};

/// Outcome of simulating one application trace through the hierarchy.
struct SimulationResult {
  LayerStats io;       ///< across all I/O-node caches
  LayerStats storage;  ///< across all storage-node caches

  double exec_time = 0;  ///< seconds: max per-thread completion over phases
  std::vector<double> thread_time;  ///< per-thread total busy time

  std::uint64_t disk_reads = 0;
  std::uint64_t demotions = 0;     ///< DEMOTE-LRU block demotions
  std::uint64_t prefetches = 0;    ///< readahead blocks staged
  std::uint64_t disk_writes = 0;   ///< dirty blocks written back to disk
  std::uint64_t writebacks = 0;    ///< dirty evictions shipped down a layer
  std::uint64_t accesses = 0;      ///< block-level requests issued
  std::uint64_t elements = 0;      ///< element accesses represented

  /// Fault-injection accounting; all-zero (and unprinted) without faults.
  FaultStats faults;

  /// Event-core contention accounting; all-zero (and unprinted) under the
  /// clock core or when nothing ever queued.
  QueueStats queue;

  /// Per-tenant attribution slices for multi-tenant interleaved runs
  /// (trace/interleaver.hpp + HierarchySimulator::set_tenants). Empty for
  /// single-tenant runs, keeping equality with pre-tenant baselines intact.
  std::vector<TenantStats> tenants;

  /// Per-layer I/O lower bounds (core/io_lower_bound.hpp), attached by
  /// the experiment runner after the simulation: the minimum bytes any
  /// layout/policy must move into each cache layer. Zero means "no
  /// claim" (bound model gated off for this configuration).
  std::uint64_t io_bound_bytes = 0;
  std::uint64_t storage_bound_bytes = 0;

  /// Total bound across both cache layers.
  std::uint64_t bound_bytes() const {
    return io_bound_bytes + storage_bound_bytes;
  }
  /// Bytes actually moved into the cache layers by this simulation.
  std::uint64_t achieved_bytes() const {
    return io.bytes_filled + storage.bytes_filled;
  }
  /// achieved / bound (>= 1 whenever the bound makes a claim; 0 when it
  /// doesn't, so "no claim" is distinguishable from "optimal").
  double achieved_ratio() const {
    return bound_bytes() == 0 ? 0.0
                              : static_cast<double>(achieved_bytes()) /
                                    static_cast<double>(bound_bytes());
  }

  std::string summary() const;

  /// Exact equality over every field, including per-thread times — the
  /// determinism and golden streaming-vs-eager tests rely on this being
  /// bitwise-strict (doubles compared with ==, not a tolerance).
  friend bool operator==(const SimulationResult&,
                         const SimulationResult&) = default;
};

/// Compact single-line wire encoding of a SimulationResult, used by the
/// ExperimentEngine's checkpoint journal. Doubles are emitted as C99
/// hexfloats so a journaled result round-trips bit-exactly (resumed grids
/// must reproduce byte-identical output).
std::string to_wire(const SimulationResult& result);

/// Inverse of to_wire; std::nullopt on any malformed input or any line of
/// an older wire version (a resumable journal treats such cells as
/// not-yet-run rather than crashing).
std::optional<SimulationResult> from_wire(const std::string& line);

/// Flows one simulation's per-layer hit/miss/bytes/fault counters into the
/// process-wide obs::registry() under the `sim.*` namespace (DESIGN.md
/// "Observability"). No-op when obs is disabled. Counter sums are
/// order-independent, so grid runs publish deterministically for any
/// engine worker count.
void publish_to_registry(const SimulationResult& result);

}  // namespace flo::storage
