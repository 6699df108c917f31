#include "trace/interleaver.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "util/rng.hpp"

namespace flo::trace {

namespace {

/// Stream for slots whose tenant has no phase instance (or thread) here.
class EmptyCursor final : public storage::ThreadCursor {
 public:
  bool next(storage::AccessEvent& /*out*/) override { return false; }
};

/// Shifts a tenant's file ids into its slice of the combined namespace.
class RemapCursor final : public storage::ThreadCursor {
 public:
  RemapCursor(std::unique_ptr<storage::ThreadCursor> inner,
              storage::FileId base)
      : inner_(std::move(inner)), base_(base) {}

  bool next(storage::AccessEvent& out) override {
    if (!inner_->next(out)) return false;
    out.file += base_;
    return true;
  }

 private:
  std::unique_ptr<storage::ThreadCursor> inner_;
  storage::FileId base_;
};

}  // namespace

InterleavedTraceSource::InterleavedTraceSource(
    std::vector<const storage::TraceSource*> tenants, InterleavePolicy policy,
    std::uint64_t seed)
    : tenants_(std::move(tenants)) {
  if (tenants_.empty()) {
    throw std::invalid_argument("InterleavedTraceSource: no tenants");
  }
  for (const storage::TraceSource* tenant : tenants_) {
    if (tenant == nullptr) {
      throw std::invalid_argument("InterleavedTraceSource: null tenant");
    }
  }

  // Combined file namespace: concatenate, remembering each tenant's base.
  file_base_.reserve(tenants_.size());
  for (const storage::TraceSource* tenant : tenants_) {
    const auto& blocks = tenant->file_blocks();
    if (file_blocks_.size() + blocks.size() >
        std::numeric_limits<storage::FileId>::max()) {
      throw std::invalid_argument(
          "InterleavedTraceSource: combined file count overflows FileId");
    }
    file_base_.push_back(static_cast<storage::FileId>(file_blocks_.size()));
    file_blocks_.insert(file_blocks_.end(), blocks.begin(), blocks.end());
  }

  // Flatten each tenant's (phase x repeat) into repeat-1 phase instances.
  instance_phase_.resize(tenants_.size());
  for (std::size_t k = 0; k < tenants_.size(); ++k) {
    const storage::TraceSource& tenant = *tenants_[k];
    for (std::size_t p = 0; p < tenant.phase_count(); ++p) {
      for (std::uint32_t rep = 0; rep < tenant.phase_repeat(p); ++rep) {
        instance_phase_[k].push_back(p);
      }
    }
    phase_count_ = std::max(phase_count_, instance_phase_[k].size());
  }

  // Slot table: rounds across tenants (ragged thread counts simply drop
  // out of later rounds), optionally shuffled. A single tenant keeps the
  // identity table under both policies — the N=1 passthrough guarantee.
  for (std::uint32_t round = 0;; ++round) {
    bool added = false;
    for (std::size_t k = 0; k < tenants_.size(); ++k) {
      if (round < tenants_[k]->thread_count()) {
        slots_.push_back({static_cast<std::uint32_t>(k), round});
        added = true;
      }
    }
    if (!added) break;
  }
  if (policy == InterleavePolicy::kSeededRandom && tenants_.size() > 1 &&
      slots_.size() > 1) {
    std::vector<std::uint32_t> perm(slots_.size());
    util::Rng rng(seed);
    rng.shuffle_indices(perm.data(), perm.size());
    std::vector<Slot> shuffled(slots_.size());
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      shuffled[i] = slots_[perm[i]];
    }
    slots_ = std::move(shuffled);
  }
}

std::unique_ptr<storage::ThreadCursor> InterleavedTraceSource::open(
    std::size_t phase, std::uint32_t thread) const {
  if (thread >= slots_.size()) return std::make_unique<EmptyCursor>();
  const Slot slot = slots_[thread];
  const std::vector<std::size_t>& instances = instance_phase_[slot.tenant];
  if (phase >= instances.size()) return std::make_unique<EmptyCursor>();
  auto inner = tenants_[slot.tenant]->open(instances[phase], slot.thread);
  // Tenant 0's namespace starts at 0: passthrough, no per-event overhead
  // (and byte-identical cursor behaviour for the N=1 isolation guarantee).
  if (file_base_[slot.tenant] == 0) return inner;
  return std::make_unique<RemapCursor>(std::move(inner),
                                       file_base_[slot.tenant]);
}

std::vector<std::uint32_t> InterleavedTraceSource::tenant_map() const {
  std::vector<std::uint32_t> map(slots_.size());
  for (std::size_t i = 0; i < slots_.size(); ++i) map[i] = slots_[i].tenant;
  return map;
}

}  // namespace flo::trace
