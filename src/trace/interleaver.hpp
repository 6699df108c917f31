// Tenant-tagged trace interleaving (DESIGN.md §4j): presents N independent
// TraceSources as one combined source so HierarchySimulator (either core)
// runs them against *shared* I/O and storage caches. Each simulator thread
// ("slot") carries exactly one tenant thread; the scheduler's min-clock
// interleaving then models cross-tenant cache contention with no simulator
// changes. The combined source:
//   - concatenates the tenant file namespaces (tenant k's file f becomes
//     file_base(k) + f), so tenants never alias each other's blocks;
//   - flattens each tenant's (phase x repeat) structure into repeat-1 phase
//     *instances* — bit-identical to the original replay, since the cores
//     re-open cursors per repetition with a barrier in between anyway — and
//     pads shorter tenants with empty streams, so every tenant's full
//     program runs even when phase structures differ;
//   - orders slots round-robin across tenants, or shuffles that order with
//     a seeded Rng (reproducible for a fixed seed, platform-independent).
// With a single tenant the combined source is a pure passthrough: identity
// slot table under BOTH policies, zero file-id offset, unchanged open()
// sequence — so an N=1 interleaved run is bit-identical to the plain run,
// which the tenant-isolation fuzz oracle pins in both cores.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "storage/trace_source.hpp"

namespace flo::trace {

/// How tenant threads are assigned to simulator slots.
enum class InterleavePolicy {
  kRoundRobin,    ///< rounds across tenants: t0/0, t1/0, ..., t0/1, t1/1, ...
  kSeededRandom,  ///< the round-robin table shuffled by a seeded Rng
};

class InterleavedTraceSource final : public storage::TraceSource {
 public:
  /// Does not own the tenant sources; they must outlive this object.
  /// Throws std::invalid_argument on an empty or null tenant list.
  explicit InterleavedTraceSource(
      std::vector<const storage::TraceSource*> tenants,
      InterleavePolicy policy = InterleavePolicy::kRoundRobin,
      std::uint64_t seed = 2012);

  std::size_t phase_count() const override { return phase_count_; }
  /// Repeats are flattened into phase instances; see the header comment.
  std::uint32_t phase_repeat(std::size_t /*phase*/) const override {
    return 1;
  }
  std::size_t thread_count() const override { return slots_.size(); }
  const std::vector<std::uint64_t>& file_blocks() const override {
    return file_blocks_;
  }
  std::unique_ptr<storage::ThreadCursor> open(
      std::size_t phase, std::uint32_t thread) const override;

  std::size_t tenant_count() const { return tenants_.size(); }
  std::uint32_t tenant_of_slot(std::uint32_t slot) const {
    return slots_[slot].tenant;
  }
  std::uint32_t origin_thread_of_slot(std::uint32_t slot) const {
    return slots_[slot].thread;
  }
  /// First combined file id of tenant `k`'s namespace.
  storage::FileId file_base(std::size_t tenant) const {
    return file_base_[tenant];
  }
  /// Slot -> tenant map shaped for HierarchySimulator::set_tenants.
  std::vector<std::uint32_t> tenant_map() const;

 private:
  struct Slot {
    std::uint32_t tenant = 0;
    std::uint32_t thread = 0;  ///< thread id within the tenant's own source
  };

  std::vector<const storage::TraceSource*> tenants_;
  std::vector<Slot> slots_;
  /// instance_phase_[k][i] = tenant k's underlying phase for combined
  /// phase instance i; instances beyond a tenant's count are empty streams.
  std::vector<std::vector<std::size_t>> instance_phase_;
  std::size_t phase_count_ = 0;
  std::vector<storage::FileId> file_base_;
  std::vector<std::uint64_t> file_blocks_;
};

}  // namespace flo::trace
