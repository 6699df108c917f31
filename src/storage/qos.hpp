// Tenant quality-of-service configuration (DESIGN.md §4k).
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

/// Process default from FLO_SCHED ("look" when unset/empty). An
/// unrecognized value throws std::invalid_argument once, loudly, instead
/// of silently scheduling with the wrong policy.
SchedPolicyKind sched_policy_from_env();

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
/// syntax), with FLO_SCHED overriding the scheduler field afterwards.
/// Returns `fallback` (scheduler possibly overridden) when FLO_QOS is
/// unset or empty, so default runs stay byte-identical to the pre-QoS
/// build.
QosConfig qos_config_from_env(QosConfig fallback = {});

/// Largest-remainder apportionment of `capacity` blocks over `shares`
/// (every tenant gets at least one block; remainders break ties by lower
/// tenant id). `shares` may be empty for equal weights. Throws
/// std::invalid_argument when capacity < tenant count — a partition that
/// cannot grant everyone a block is a configuration error, not a policy.
std::vector<std::size_t> quota_partition(std::size_t capacity,
                                         std::size_t tenants,
                                         const std::vector<std::uint32_t>& shares);

}  // namespace flo::storage
