// Per-tenant attribution ledger of a multi-tenant run (DESIGN.md §4j).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "storage/stats.hpp"

namespace flo::storage {

/// The attributed counters, each a TenantStats field beside the aggregate
/// it slices. This one list drives both the scope snapshot and the settle;
/// the fold over the tuple expands it to straight-line code.
inline constexpr auto kAttributedCounters = std::make_tuple(
    std::pair{&TenantStats::accesses,
              [](const SimulationResult& r) { return r.accesses; }},
    std::pair{&TenantStats::elements,
              [](const SimulationResult& r) { return r.elements; }},
    std::pair{&TenantStats::io_lookups,
              [](const SimulationResult& r) { return r.io.lookups; }},
    std::pair{&TenantStats::io_hits,
              [](const SimulationResult& r) { return r.io.hits; }},
    std::pair{&TenantStats::storage_lookups,
              [](const SimulationResult& r) { return r.storage.lookups; }},
    std::pair{&TenantStats::storage_hits,
              [](const SimulationResult& r) { return r.storage.hits; }},
    std::pair{&TenantStats::disk_reads,
              [](const SimulationResult& r) { return r.disk_reads; }},
    std::pair{&TenantStats::bytes_filled, [](const SimulationResult& r) {
                return r.io.bytes_filled + r.storage.bytes_filled;
              }});

/// Attributes counter deltas scope to scope: switching the open scope to
/// another tenant settles what the attributed aggregates gained since it
/// opened into the previous tenant's TenantStats slice, then snapshots the
/// aggregates again. Summed slices therefore reproduce the aggregates
/// exactly (the conservation law the tenant-isolation oracle checks).
class TenantLedger {
 public:
  /// `tenant_of_thread[t]` names the tenant that owns simulator thread t;
  /// an empty map turns attribution off. Throws std::invalid_argument on a
  /// tenant id >= `tenant_count`.
  void assign(std::vector<std::uint32_t> tenant_of_thread,
              std::uint32_t tenant_count) {
    for (std::uint32_t tenant : tenant_of_thread) {
      if (tenant >= tenant_count) {
        throw std::invalid_argument("TenantLedger: tenant id out of range");
      }
    }
    tenant_of_thread_ = std::move(tenant_of_thread);
    count_ = tenant_of_thread_.empty() ? 0 : tenant_count;
  }

  bool enabled() const { return !tenant_of_thread_.empty(); }
  std::uint32_t tenant_count() const { return count_; }
  const std::vector<std::uint32_t>& tenant_of_thread() const {
    return tenant_of_thread_;
  }
  /// The open scope's tenant, charged for the block being serviced.
  std::uint32_t tenant() const { return tenant_; }

  /// Closes the open scope without settling it; every run starts here.
  void reset() {
    open_ = false;
    tenant_ = 0;
  }

  /// Moves the open scope to `thread`'s tenant (one compare if it has it).
  void switch_to(std::uint32_t thread, SimulationResult& result) {
    const std::uint32_t tenant = tenant_of_thread_[thread];
    if (open_ && tenant_ == tenant) return;
    settle(result);
    open(tenant, result);
  }

  /// Settles and reopens the open scope: every slice is current mid-run.
  void refresh(SimulationResult& result) {
    if (!open_) return;
    settle(result);
    open(tenant_, result);
  }

  /// Settles the open scope and adds each thread's busy time to its
  /// tenant; once per run, after the final barrier.
  void finish(SimulationResult& result) {
    settle(result);
    const std::size_t threads =
        std::min(tenant_of_thread_.size(), result.thread_time.size());
    for (std::size_t t = 0; t < threads; ++t) {
      result.tenants[tenant_of_thread_[t]].busy_time += result.thread_time[t];
    }
  }

 private:
  void settle(SimulationResult& result) {
    if (!open_) return;
    TenantStats& slice = result.tenants[tenant_];
    std::apply(
        [&](const auto&... counter) {
          std::size_t i = 0;
          ((slice.*counter.first += counter.second(result) - base_[i++]), ...);
        },
        kAttributedCounters);
    open_ = false;
  }

  void open(std::uint32_t tenant, const SimulationResult& result) {
    open_ = true;
    tenant_ = tenant;
    std::apply(
        [&](const auto&... counter) {
          std::size_t i = 0;
          ((base_[i++] = counter.second(result)), ...);
        },
        kAttributedCounters);
  }

  std::vector<std::uint32_t> tenant_of_thread_;
  std::uint32_t count_ = 0;
  bool open_ = false;
  std::uint32_t tenant_ = 0;
  /// The attributed aggregates when the open scope opened.
  std::array<std::uint64_t, std::tuple_size_v<decltype(kAttributedCounters)>>
      base_{};
};

}  // namespace flo::storage
