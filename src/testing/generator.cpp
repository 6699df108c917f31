#include "testing/generator.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "ir/validate.hpp"
#include "linalg/int_matrix.hpp"

namespace flo::testing {

namespace {

/// 1..max, uniform.
std::int64_t one_to(util::Rng& rng, std::int64_t max) {
  return 1 + static_cast<std::int64_t>(
                 rng.next_below(static_cast<std::uint64_t>(max)));
}

std::string array_name(std::size_t index) {
  std::string name(1, static_cast<char>('A' + index % 26));
  if (index >= 26) name += std::to_string(index / 26);
  return name;
}

/// Extremes of one access row c . i + q over the box: affine forms are
/// monotone per axis, so each loop contributes min/max at its own bounds.
struct RowRange {
  std::int64_t lo = 0;
  std::int64_t hi = 0;
};

RowRange row_range(const linalg::IntMatrix& q, std::size_t row,
                   std::int64_t offset,
                   const std::vector<poly::LoopBound>& bounds) {
  RowRange range{offset, offset};
  for (std::size_t k = 0; k < bounds.size(); ++k) {
    const std::int64_t c = q.at(row, k);
    const std::int64_t at_lo = c * bounds[k].lower;
    const std::int64_t at_hi = c * bounds[k].upper;
    range.lo += std::min(at_lo, at_hi);
    range.hi += std::max(at_lo, at_hi);
  }
  return range;
}

/// A nest still under construction: bounds plus raw references whose
/// offsets get lifted (and array extents derived) once all nests exist.
struct PendingRef {
  std::size_t array = 0;
  linalg::IntMatrix access;
  linalg::IntVector offset;
  ir::AccessKind kind = ir::AccessKind::kRead;
};

struct PendingNest {
  std::string name;
  std::vector<poly::LoopBound> bounds;
  std::size_t parallel = 0;
  std::int64_t repeat = 1;
  std::vector<PendingRef> refs;
};

ir::Program assemble(std::string program_name,
                     const std::vector<std::size_t>& array_ranks,
                     std::vector<PendingNest> nests, util::Rng& rng) {
  // Lift offsets so every row's minimum over its box is >= 0, then derive
  // each array extent as 1 + the maximum index any reference produces.
  std::vector<std::vector<std::int64_t>> max_index(array_ranks.size());
  for (std::size_t a = 0; a < array_ranks.size(); ++a) {
    max_index[a].assign(array_ranks[a], -1);
  }
  for (auto& nest : nests) {
    for (auto& ref : nest.refs) {
      for (std::size_t d = 0; d < ref.access.rows(); ++d) {
        RowRange range = row_range(ref.access, d, ref.offset[d], nest.bounds);
        if (range.lo < 0) {
          ref.offset[d] -= range.lo;
          range.hi -= range.lo;
          range.lo = 0;
        }
        max_index[ref.array][d] =
            std::max(max_index[ref.array][d], range.hi);
      }
    }
  }

  ir::Program program(std::move(program_name));
  for (std::size_t a = 0; a < array_ranks.size(); ++a) {
    std::vector<std::int64_t> extents(array_ranks[a]);
    for (std::size_t d = 0; d < array_ranks[a]; ++d) {
      // Untouched dimensions (and untouched arrays) get a small extent.
      extents[d] = max_index[a][d] >= 0 ? max_index[a][d] + 1
                                        : one_to(rng, 4);
    }
    program.add_array(ir::ArrayDecl(array_name(a), poly::DataSpace(extents)));
  }
  for (auto& nest : nests) {
    ir::LoopNest loop(nest.name, poly::IterationSpace(nest.bounds),
                      nest.parallel, nest.repeat);
    for (auto& ref : nest.refs) {
      loop.add_reference({static_cast<ir::ArrayId>(ref.array),
                          poly::AffineReference(std::move(ref.access),
                                                std::move(ref.offset)),
                          ref.kind});
    }
    program.add_nest(std::move(loop));
  }

  const auto issues = ir::validate(program);
  if (!issues.empty()) {
    std::string message = "random_program produced an invalid program:";
    for (const auto& issue : issues) message += "\n  - " + issue;
    throw std::logic_error(message);
  }
  return program;
}

}  // namespace

ir::Program random_program(util::Rng& rng, const GeneratorOptions& options) {
  const std::size_t n_arrays =
      static_cast<std::size_t>(one_to(rng, options.max_arrays));
  std::vector<std::size_t> ranks(n_arrays);
  for (auto& rank : ranks) {
    rank = static_cast<std::size_t>(one_to(rng, options.max_dims));
  }

  const std::size_t n_nests =
      static_cast<std::size_t>(one_to(rng, options.max_nests));
  std::vector<PendingNest> nests(n_nests);
  for (std::size_t n = 0; n < n_nests; ++n) {
    PendingNest& nest = nests[n];
    // A char, not "n": GCC 12 at -O3 reports a false -Wrestrict for
    // `"n" + std::to_string(n)` inlined here.
    nest.name = 'n' + std::to_string(n);
    const std::size_t depth =
        static_cast<std::size_t>(one_to(rng, options.max_depth));
    for (std::size_t k = 0; k < depth; ++k) {
      poly::LoopBound bound;
      bound.lower = options.allow_negative_lower
                        ? static_cast<std::int64_t>(rng.next_below(5)) - 2
                        : static_cast<std::int64_t>(rng.next_below(3));
      bound.upper = bound.lower + one_to(rng, options.max_trip) - 1;
      nest.bounds.push_back(bound);
    }
    nest.parallel = rng.next_below(depth);
    nest.repeat = one_to(rng, options.max_repeat);

    const std::size_t n_refs =
        static_cast<std::size_t>(one_to(rng, options.max_refs));
    for (std::size_t r = 0; r < n_refs; ++r) {
      PendingRef ref;
      ref.array = rng.next_below(n_arrays);
      ref.kind = options.allow_writes && rng.next_below(4) == 0
                     ? ir::AccessKind::kWrite
                     : ir::AccessKind::kRead;
      const std::size_t dims = ranks[ref.array];
      ref.access = linalg::IntMatrix(dims, depth);
      ref.offset.assign(dims, 0);
      for (std::size_t d = 0; d < dims; ++d) {
        // Each row couples to 0, 1 or 2 loops (weighted toward 1 — the
        // shape real affine codes take), with coefficients in
        // [-max_coeff, max_coeff] \ {0}.
        const std::uint64_t shape = rng.next_below(10);
        const std::size_t terms = shape == 0 ? 0 : shape <= 7 ? 1 : 2;
        for (std::size_t term = 0; term < terms; ++term) {
          const std::size_t k = rng.next_below(depth);
          std::int64_t coeff = one_to(rng, options.max_coeff);
          if (rng.next_below(3) == 0) coeff = -coeff;
          ref.access.at(d, k) += coeff;
        }
        ref.offset[d] = static_cast<std::int64_t>(
            rng.next_below(static_cast<std::uint64_t>(options.max_offset) + 1));
      }
      nest.refs.push_back(std::move(ref));
    }
  }
  return assemble("fuzz", ranks, std::move(nests), rng);
}

ir::Program random_huge_trip_program(util::Rng& rng) {
  // Two loops: a small parallel outer one and a stride-0 inner one whose
  // trip count exceeds 2^32, so one merged run carries > 2^32 elements.
  PendingNest nest;
  nest.name = "huge";
  nest.parallel = 0;
  nest.repeat = 1;
  nest.bounds.push_back({0, one_to(rng, 4) * 2 - 1});
  const std::int64_t inner_trip =
      (1ll << 32) + 1 + static_cast<std::int64_t>(rng.next_below(1ull << 32));
  nest.bounds.push_back({0, inner_trip - 1});

  PendingRef ref;
  ref.array = 0;
  ref.access = linalg::IntMatrix(1, 2);
  ref.access.at(0, 0) = 1;  // column for the inner loop stays zero
  ref.offset.assign(1, 0);
  nest.refs.push_back(std::move(ref));

  std::vector<PendingNest> nests;
  nests.push_back(std::move(nest));
  return assemble("fuzz_huge", {1}, std::move(nests), rng);
}

std::string SampledSystem::describe() const {
  std::ostringstream os;
  os << "threads=" << threads << " compute=" << config.compute_nodes
     << " io=" << config.io_nodes << " storage=" << config.storage_nodes
     << " block=" << config.block_size << " ioc=" << config.io_cache_bytes
     << " stc=" << config.storage_cache_bytes
     << " iocache=" << (config.io_cache_enabled ? 1 : 0)
     << " stcache=" << (config.storage_cache_enabled ? 1 : 0)
     << " prefetch=" << config.prefetch_depth
     << " writes=" << (config.model_writes ? 1 : 0)
     << " policy=" << storage::policy_name(policy)
     << " mapping=" << parallel::mapping_name(mapping);
  if (config.fault.enabled) {
    os << " faults(seed=" << config.fault.seed
       << ",disk=" << config.fault.disk_transient_rate
       << ",storage=" << config.fault.storage_transient_rate
       << ",slow=" << config.fault.slow_disk_rate << ")";
  }
  return os.str();
}

SampledSystem random_system(util::Rng& rng, const SystemOptions& options) {
  SampledSystem out;
  storage::TopologyConfig& c = out.config;

  // Node counts nest by construction (StorageTopology requires multiples).
  c.storage_nodes = 1 + rng.next_below(2);
  c.io_nodes = c.storage_nodes * (1 + rng.next_below(2));
  std::size_t per_io = 1 + rng.next_below(4);
  while (c.io_nodes * per_io > options.max_threads && per_io > 1) --per_io;
  c.compute_nodes = c.io_nodes * per_io;
  out.threads = c.compute_nodes;

  // Block size: powers of two plus a few non-power multiples of the 8-byte
  // element size, exercising the walker's division path.
  static constexpr std::uint64_t kBlockSizes[] = {64, 128, 256, 512, 96, 192};
  c.block_size = kBlockSizes[rng.next_below(std::size(kBlockSizes))];
  c.io_cache_bytes = c.block_size * (4 + rng.next_below(29));
  c.storage_cache_bytes = c.block_size * (8 + rng.next_below(57));
  c.io_cache_enabled = rng.next_below(8) != 0;
  c.storage_cache_enabled = rng.next_below(8) != 0;
  c.prefetch_depth = static_cast<std::uint32_t>(rng.next_below(3));
  c.model_writes = rng.next_below(4) == 0;

  if (options.sample_faults && rng.next_below(4) == 0) {
    c.fault.enabled = true;
    c.fault.seed = rng.next_u64();
    c.fault.disk_transient_rate = 0.05 * rng.next_double();
    c.fault.storage_transient_rate = 0.05 * rng.next_double();
    c.fault.slow_disk_rate = 0.1 * rng.next_double();
    c.fault.retry_backoff = 1e-4;
    if (rng.next_below(2) == 0) {
      storage::OutageWindow outage;
      outage.layer = rng.next_below(2) == 0 ? storage::FaultLayer::kIo
                                            : storage::FaultLayer::kStorage;
      const std::size_t nodes = outage.layer == storage::FaultLayer::kIo
                                    ? c.io_nodes
                                    : c.storage_nodes;
      outage.node = static_cast<std::uint32_t>(rng.next_below(nodes));
      outage.start = rng.next_double() * 0.01;
      outage.end = outage.start + rng.next_double() * 0.05;
      c.fault.outages.push_back(outage);
    }
  }

  static constexpr storage::PolicyKind kPolicies[] = {
      storage::PolicyKind::kLruInclusive, storage::PolicyKind::kDemoteLru,
      storage::PolicyKind::kKarma};
  out.policy = kPolicies[rng.next_below(std::size(kPolicies))];
  static constexpr parallel::MappingKind kMappings[] = {
      parallel::MappingKind::kIdentity, parallel::MappingKind::kPermutation2,
      parallel::MappingKind::kPermutation3,
      parallel::MappingKind::kPermutation4};
  out.mapping = kMappings[rng.next_below(std::size(kMappings))];
  return out;
}

FuzzCase random_case(util::Rng& rng, bool huge,
                     const GeneratorOptions& options,
                     const SystemOptions& system_options) {
  FuzzCase out;
  out.huge = huge;
  out.program =
      huge ? random_huge_trip_program(rng) : random_program(rng, options);
  out.system = random_system(rng, system_options);
  return out;
}

}  // namespace flo::testing
