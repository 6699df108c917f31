#include "layout/internode.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "linalg/gcd.hpp"

namespace flo::layout {

namespace {

std::int64_t floor_div(std::int64_t a, std::int64_t b) {
  std::int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

}  // namespace

std::size_t InterNodeLayout::rank_of(std::uint64_t idx) const {
  const RankWord& word = words_[idx / 64];
  const std::uint64_t below =
      word.bits & ((std::uint64_t{1} << (idx % 64)) - 1);
  return word.rank + static_cast<std::uint64_t>(std::popcount(below));
}

parallel::ThreadId InterNodeLayout::owner_of_s(std::int64_t s) const {
  const std::int64_t iu =
      floor_div(s - partitioning_.beta, partitioning_.alpha);
  return decomp_.thread_of(iu);
}

InterNodeLayout::InterNodeLayout(const ir::Program& program,
                                 ir::ArrayId array,
                                 const ArrayPartitioning& partitioning,
                                 const parallel::ParallelSchedule& schedule,
                                 std::vector<PatternLayer> layers,
                                 std::vector<std::size_t> leaf_cache_of_thread,
                                 std::uint64_t block_elems)
    : space_(program.array(array).space()), partitioning_(partitioning) {
  if (!partitioning_.partitioned) {
    throw std::invalid_argument("InterNodeLayout: array not partitioned");
  }
  if (partitioning_.alpha == 0) {
    throw std::invalid_argument("InterNodeLayout: zero parallel stride");
  }
  decomp_ = schedule.decomposition(partitioning_.primary_nest);
  const auto& d = partitioning_.hyperplane;
  const std::uint64_t elements =
      static_cast<std::uint64_t>(space_.element_count());
  words_.assign(static_cast<std::size_t>((elements + 63) / 64), RankWord{});

  // Pass 1: gather the touched elements of this array across every
  // reference of every nest (Algorithm 1 iterates "each data element
  // accessed by thread j"), deduplicated through the bitmap, with their
  // hyperplane value, grouped by owner.
  struct Item {
    std::int64_t s;
    std::int64_t idx;
  };
  std::vector<std::vector<Item>> per_thread(schedule.thread_count());
  std::vector<std::int64_t> element(space_.dims());
  for (const auto& nest : program.nests()) {
    bool touches = false;
    for (const auto& ref : nest.references()) {
      if (ref.array == array) touches = true;
    }
    if (!touches) continue;
    std::vector<std::int64_t> iter = nest.iterations().first();
    bool more = true;
    while (more) {
      for (const auto& ref : nest.references()) {
        if (ref.array != array) continue;
        ref.map.evaluate_into(iter, element);
        const std::int64_t idx = space_.linearize_row_major(element);
        const std::uint64_t u = static_cast<std::uint64_t>(idx);
        if (u >= elements) {
          throw std::out_of_range(
              "InterNodeLayout: reference indexes outside the array");
        }
        std::uint64_t& bits = words_[u / 64].bits;
        const std::uint64_t bit = std::uint64_t{1} << (u % 64);
        if ((bits & bit) == 0) {
          bits |= bit;
          const std::int64_t s = linalg::dot(d, element);
          per_thread[owner_of_s(s)].push_back({s, idx});
        }
      }
      more = nest.iterations().next(iter);
    }
  }
  std::uint64_t touched = 0;
  for (RankWord& word : words_) {
    word.rank = touched;
    touched += static_cast<std::uint64_t>(std::popcount(word.bits));
  }

  // Chunk size: Step II's S1/l, capped at the largest per-thread touched
  // share so small or sparse arrays stay dense (block-aligned).
  std::size_t max_share = 1;
  for (const auto& items : per_thread) {
    max_share = std::max(max_share, items.size());
  }
  const std::uint64_t cap =
      (static_cast<std::uint64_t>(max_share) + block_elems - 1) /
      block_elems * block_elems;
  pattern_ = ChunkPattern(std::move(layers), schedule.thread_count(),
                          static_cast<std::uint64_t>(
                              program.array(array).element_size()),
                          std::move(leaf_cache_of_thread), cap);

  // Pass 2: slab-major order within each thread, then chunk addressing.
  slots_.assign(static_cast<std::size_t>(touched), 0);
  const std::uint64_t c = pattern_.chunk_elements();
  for (parallel::ThreadId t = 0; t < per_thread.size(); ++t) {
    auto& items = per_thread[t];
    std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
      if (a.s != b.s) return a.s < b.s;
      return a.idx < b.idx;
    });
    for (std::size_t k = 0; k < items.size(); ++k) {
      const std::uint64_t chunk = k / c;
      const std::uint64_t within = k % c;
      const std::int64_t slot =
          static_cast<std::int64_t>(pattern_.chunk_start(t, chunk) + within);
      slots_[rank_of(static_cast<std::uint64_t>(items[k].idx))] = slot;
      patterned_slots_ = std::max(patterned_slots_, slot + 1);
    }
  }
}

std::int64_t InterNodeLayout::slot(
    std::span<const std::int64_t> element) const {
  const std::int64_t idx = space_.linearize_row_major(element);
  const std::uint64_t u = static_cast<std::uint64_t>(idx);
  if (u / 64 < words_.size() && ((words_[u / 64].bits >> (u % 64)) & 1)) {
    return slots_[rank_of(u)];
  }
  // Untouched element: lives in the canonical-order tail past the
  // patterned region (kept total and injective for robustness; the
  // program's own traces never reach here).
  return patterned_slots_ + idx;
}

std::int64_t InterNodeLayout::file_slots() const {
  // Upper bound covering the untouched tail.
  return patterned_slots_ + space_.element_count();
}

parallel::ThreadId InterNodeLayout::owner(
    std::span<const std::int64_t> element) const {
  return owner_of_s(linalg::dot(partitioning_.hyperplane, element));
}

std::string InterNodeLayout::describe() const {
  std::string out = "inter-node " + space_.to_string() + " d=(";
  for (std::size_t k = 0; k < partitioning_.hyperplane.size(); ++k) {
    if (k > 0) out += ",";
    out += std::to_string(partitioning_.hyperplane[k]);
  }
  out += ") " + pattern_.describe();
  return out;
}

std::vector<std::size_t> leaf_cache_of_threads(
    const parallel::ParallelSchedule& schedule,
    const storage::StorageTopology& topology, LayerMask mask) {
  std::vector<std::size_t> leaf(schedule.thread_count());
  for (parallel::ThreadId t = 0; t < schedule.thread_count(); ++t) {
    const storage::NodeId io =
        topology.io_node_of(schedule.mapping().node_of(t));
    leaf[t] = mask == LayerMask::kStorageOnly
                  ? topology.storage_node_of_io(io)
                  : io;
  }
  return leaf;
}

FileLayoutPtr build_internode_layout(const ir::Program& program,
                                     ir::ArrayId array,
                                     const parallel::ParallelSchedule& schedule,
                                     const storage::StorageTopology& topology,
                                     LayerMask mask,
                                     const PartitioningOptions& options) {
  return build_internode_layout(
      program, array, partition_array(program, array, schedule, options),
      schedule, topology, mask);
}

FileLayoutPtr build_internode_layout(const ir::Program& program,
                                     ir::ArrayId array,
                                     const ArrayPartitioning& partitioning,
                                     const parallel::ParallelSchedule& schedule,
                                     const storage::StorageTopology& topology,
                                     LayerMask mask) {
  if (!partitioning.partitioned) return nullptr;
  const std::uint64_t block_elems = std::max<std::uint64_t>(
      1, topology.config().block_size /
             static_cast<std::uint64_t>(program.array(array).element_size()));
  return std::make_unique<InterNodeLayout>(
      program, array, partitioning, schedule, pattern_layers(topology, mask),
      leaf_cache_of_threads(schedule, topology, mask), block_elems);
}

}  // namespace flo::layout
