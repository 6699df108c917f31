// Deterministic fault injection for the storage hierarchy.
//
// A FaultConfig describes *what* can go wrong — per-layer outage windows
// (a cache goes dark for a window of virtual time and requests bypass to
// the next layer down), transient read failures at the storage fabric and
// the disks (retried with exponential backoff, every retry charged to the
// virtual clock), and slow-disk latency spikes. A FaultPlan turns the
// config into a reproducible decision stream: every probabilistic draw is
// a counter-hash of the seed, so a simulation replays the identical fault
// sequence however many engine workers run around it, and a zero-rate
// plan never perturbs the baseline. Nothing here touches wall time; all
// costs land on the simulator's virtual clocks.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace flo::storage {

/// Cache layer a whole-layer outage applies to (disks never go dark: they
/// are the floor of the hierarchy).
enum class FaultLayer : std::uint8_t { kIo = 0, kStorage = 1 };

const char* fault_layer_name(FaultLayer layer);

/// One cache offline for a window of virtual time. Requests that would
/// have consulted it bypass to the next layer down (and are counted in
/// FaultStats as bypasses).
struct OutageWindow {
  FaultLayer layer = FaultLayer::kIo;
  std::uint32_t node = 0;
  double start = 0;  ///< virtual seconds, inclusive
  double end = 0;    ///< virtual seconds, exclusive

  friend bool operator==(const OutageWindow&, const OutageWindow&) = default;
};

struct FaultConfig {
  /// Master switch: when false the simulator takes the exact pre-fault
  /// code paths and results are byte-identical to a build without faults.
  bool enabled = false;
  std::uint64_t seed = 42;

  /// Probability one storage-fabric read attempt fails. Failed attempts
  /// retry with backoff; exhausting the budget bypasses the storage cache
  /// straight to disk for that request.
  double storage_transient_rate = 0;
  /// Probability one disk read attempt fails. The disk is the floor of
  /// the hierarchy, so an exhausted retry budget forces the read through
  /// (counted as an exhausted retry).
  double disk_transient_rate = 0;
  /// Retries per request before giving up on a transiently failing layer.
  std::uint32_t max_retries = 4;
  /// First retry penalty in virtual seconds; doubles with every attempt.
  double retry_backoff = 1e-3;

  /// Probability a disk read is served degraded (multiplied service time).
  double slow_disk_rate = 0;
  double slow_disk_multiplier = 8.0;

  std::vector<OutageWindow> outages;

  /// True when enabled and at least one knob can actually fire.
  bool any_faults() const;

  /// Throws std::invalid_argument on a rate outside [0, 1], a multiplier
  /// below 1, a negative backoff, a negative outage time or an outage
  /// ending before it starts; a NaN or infinite value fails every check.
  /// (Outage node bounds are validated by StorageTopology, which knows
  /// the node counts.)
  void validate() const;

  friend bool operator==(const FaultConfig&, const FaultConfig&) = default;
};

/// Parses a comma-separated "key=value" spec into an enabled FaultConfig,
/// e.g. "transient=0.05,slow=0.1,retries=4,seed=7,outage=io:3:0.0:0.5".
/// Keys: seed, transient (sets disk and storage rates), disk-transient,
/// storage-transient, retries, backoff, slow, slow-mult, and repeatable
/// outage=<io|storage>:<node>:<start>:<end>. An empty spec returns a
/// disabled config. Throws std::invalid_argument on malformed input.
FaultConfig parse_fault_spec(const std::string& spec);

/// FaultConfig from the FLO_FAULTS environment variable (parse_fault_spec
/// syntax), read and parsed once per process through util::read_knob; a
/// malformed spec throws util::KnobError. Returns `fallback` unchanged
/// when the variable is unset or empty, so default runs stay
/// byte-identical to the fault-free build.
FaultConfig fault_config_from_env(FaultConfig fallback = {});

/// Seeded decision stream over a FaultConfig. Each decision category
/// (storage failure, disk failure, disk slowdown) hashes (seed, category,
/// draw index), so the sequence depends only on the seed and how many
/// draws preceded it — deterministic for a deterministic simulation.
class FaultPlan {
 public:
  FaultPlan() = default;  ///< disabled: every query answers "no fault"
  explicit FaultPlan(FaultConfig config);

  bool enabled() const { return config_.enabled; }
  const FaultConfig& config() const { return config_; }

  /// Rewinds the decision streams so a fresh simulation run replays the
  /// identical fault sequence.
  void reset();

  /// Whether `layer`/`node` is inside an outage window at virtual `now`.
  bool offline(FaultLayer layer, std::uint32_t node, double now) const;

  /// Decides the fate of the next read attempt at each faultable stage.
  bool storage_read_fails();
  bool disk_read_fails();
  bool disk_read_slow();

  /// Backoff charged for retry number `attempt` (0-based):
  /// retry_backoff * 2^attempt.
  double backoff(std::uint32_t attempt) const;

 private:
  double draw(std::uint64_t salt, std::uint64_t& counter);

  FaultConfig config_;
  std::uint64_t storage_fail_draws_ = 0;
  std::uint64_t disk_fail_draws_ = 0;
  std::uint64_t slow_draws_ = 0;
};

}  // namespace flo::storage
