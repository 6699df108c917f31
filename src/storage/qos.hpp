// Tenant quality-of-service configuration and its per-run cache
// partitioner (DESIGN.md §4k).
//
// A QosConfig rides in TopologyConfig the way FaultConfig does: disabled by
// default, and a disabled config takes the exact pre-QoS simulator paths,
// so baseline results stay byte-identical. When enabled it carries two
// orthogonal knobs:
//
//   * weighted shared-cache partitioning — per-tenant block quotas derived
//     from `shares` carve every I/O and storage cache into per-tenant
//     LRU partitions (lru_cache.hpp `set_partitions`),
//     optionally rebalanced at runtime by observed miss pressure
//     (`dynamic_shares`, a KARMA-style marginal-gain reassignment of the
//     slack above each tenant's guaranteed floor);
//
//   * a pluggable disk scheduling policy (disk_sched.hpp) replacing the
//     event core's fixed LOOK elevator: `look` (the bit-identical
//     default), `fcfs`, and `priority` — an earliest-deadline-first
//     discipline whose per-request deadline shrinks with the issuing
//     tenant's priority and grows with queueing age.
//
// Both halves change simulation results, so QosConfig participates in the
// compile fingerprint and journal keys (core/compile_cache.cpp).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "storage/stats.hpp"

namespace flo::storage {

/// Disk service-queue discipline used by the event core (the clock core
/// has no disk queues; the knob still joins the keys because it selects
/// the event core's results).
enum class SchedPolicyKind : std::uint8_t {
  kLook,      ///< elevator sweep from the head position (the PR 6 default)
  kFcfs,      ///< strict arrival order
  kPriority,  ///< earliest deadline first: arrival + window / tenant priority
};

const char* sched_policy_name(SchedPolicyKind policy);

/// Parses "look", "fcfs" or "priority" (case-sensitive); nullopt otherwise.
std::optional<SchedPolicyKind> parse_sched_policy(const std::string& name);

struct QosConfig {
  /// Master switch: when false the simulator takes the exact pre-QoS code
  /// paths and results are byte-identical to a build without QoS.
  bool enabled = false;

  /// Per-tenant cache-capacity weights (>= 1 each). Non-empty shares opt
  /// the run into partitioning: quotas are the largest-remainder
  /// apportionment of each cache's block capacity by these weights
  /// (shares=1:1:1 is an equal three-way split). Empty shares leave the
  /// caches unpartitioned — QoS then only selects the disk scheduler. A
  /// vector shorter than the tenant count is rejected at set_tenants time.
  std::vector<std::uint32_t> shares;

  /// Per-tenant disk-scheduling priorities (>= 1 each; higher is more
  /// urgent). Consulted by the `priority` policy only. Empty means every
  /// tenant has priority 1.
  std::vector<std::uint32_t> priorities;

  /// KARMA-informed dynamic mode: every `epoch_accesses` block requests,
  /// the slack above each tenant's guaranteed floor (half its static
  /// quota) is reassigned in proportion to the misses each tenant
  /// suffered during the epoch — the marginal-gain signal karma.hpp uses
  /// for range classes, applied to capacity. Deterministic: driven by the
  /// virtual access counter, never wall time.
  bool dynamic_shares = false;
  std::uint64_t epoch_accesses = 1024;

  SchedPolicyKind scheduler = SchedPolicyKind::kLook;

  /// Base deadline window (virtual seconds) for the `priority` policy:
  /// a queued request's deadline is arrival + sched_window / priority.
  double sched_window = 20e-3;

  /// Throws std::invalid_argument on a zero share or priority, a zero
  /// epoch, or a non-positive scheduling window.
  void validate() const;

  friend bool operator==(const QosConfig&, const QosConfig&) = default;
};

/// Parses a comma-separated "key=value" spec into an enabled QosConfig,
/// e.g. "shares=4:2:1,prio=2:1:1,dynamic=1,epoch=512,sched=priority".
/// Keys: shares=<a:b:...>, prio=<a:b:...>, dynamic=<0|1>, epoch=<n>,
/// sched=<look|fcfs|priority>, window=<seconds>. An empty spec returns a
/// disabled config. Throws std::invalid_argument on malformed input.
QosConfig parse_qos_spec(const std::string& spec);

/// QosConfig from the FLO_QOS environment variable (parse_qos_spec
/// syntax), with FLO_SCHED (look, fcfs or priority) overriding the
/// scheduler field afterwards. Returns `fallback` (scheduler possibly
/// overridden) when FLO_QOS is unset or empty, so default runs stay
/// byte-identical to the pre-QoS build. Both variables are read and
/// parsed once per process through util::read_knob; a malformed one
/// throws util::KnobError instead of silently running without QoS.
QosConfig qos_config_from_env(QosConfig fallback = {});

/// Largest-remainder apportionment of `capacity` blocks over `shares`
/// (every tenant gets at least one block; remainders break ties by lower
/// tenant id). `shares` may be empty for equal weights. Throws
/// std::invalid_argument when capacity < tenant count — a partition that
/// cannot grant everyone a block is a configuration error, not a policy.
std::vector<std::size_t> quota_partition(std::size_t capacity,
                                         std::size_t tenants,
                                         const std::vector<std::uint32_t>& shares);

class LruCache;
class StorageTopology;
class TenantLedger;
struct BlockKey;

/// The QoS state of one simulator run: the per-tenant partitions of every
/// cache, their dynamic-share rebalancing, per-tenant occupancy, and each
/// thread's disk-scheduling priority. It books the QoS-only TenantStats
/// fields (evictions, occupancy peak); every aggregate counter is the
/// simulator's.
class QosPartitioner {
 public:
  /// A block the rebalancer trimmed from a shrinking partition.
  struct Trimmed {
    bool storage = false;     ///< storage level (else I/O level)
    std::uint32_t cache = 0;  ///< node index of the cache within its level
    std::uint64_t key = 0;    ///< BlockKey::packed()
    bool dirty = false;       ///< the cache entry's dirty bit
  };

  /// Starts a run on freshly cleared caches. Partitioning is active when
  /// qos.enabled, qos.shares is non-empty, the ledger is armed and the
  /// policy is not KARMA (whose range classes already partition capacity):
  /// every cache is then carved by the static quotas, else returned to one
  /// global LRU, undoing an earlier run's partitions. Throws
  /// std::invalid_argument on an invalid QosConfig or too few shares.
  void arm(const StorageTopology& topology, bool karma,
           const TenantLedger& ledger, std::vector<LruCache>& io_caches,
           std::vector<LruCache>& storage_caches);

  bool active() const { return active_; }

  /// Disk-scheduling priority of a thread's tenant (>= 1; 1 when QoS or
  /// tenancy is off, or no priority vector was given).
  std::uint32_t priority(std::uint32_t thread) const {
    return thread < priority_.size() ? priority_[thread] : 1;
  }

  /// Books one partitioned insert charged to `owner`: its eviction
  /// (`evictions` names the level's counter), or its new resident block.
  void note_insert(std::uint32_t owner, bool was_resident, bool evicted,
                   std::uint64_t TenantStats::*evictions,
                   std::vector<TenantStats>& tenants);

  /// DEMOTE's exclusive erase, freeing the owner's occupancy.
  bool erase(LruCache& cache, BlockKey key);

  bool epoch_due(std::uint64_t accesses) const {
    return epoch_next_ != 0 && accesses >= epoch_next_;
  }

  /// Dynamic-share epoch boundary: each tenant keeps a floor of half its
  /// static quota (at least one block), and the slack above the floors
  /// goes by the misses each tenant suffered in the epoch, read from the
  /// settled `tenants`. Shrinks before it grows, so no quota sum exceeds a
  /// capacity, and returns the trimmed blocks in order, I/O level first.
  std::vector<Trimmed> rebalance(std::uint64_t accesses,
                                 std::vector<TenantStats>& tenants,
                                 std::vector<LruCache>& io_caches,
                                 std::vector<LruCache>& storage_caches);

 private:
  bool active_ = false;
  std::uint32_t tenants_ = 0;
  std::vector<std::size_t> io_quota_;       ///< static quotas, this run
  std::vector<std::size_t> storage_quota_;
  std::uint64_t epoch_ = 0;       ///< epoch length in accesses
  std::uint64_t epoch_next_ = 0;  ///< next boundary; 0 = dynamic shares off
  std::vector<std::uint64_t> prev_misses_;  ///< per tenant, last boundary
  std::vector<std::uint64_t> occ_;  ///< resident blocks per tenant
  std::vector<std::uint32_t> priority_;  ///< per thread; empty = all 1
};

}  // namespace flo::storage
