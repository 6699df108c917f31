// The inter-node file layout: Step I ownership + Step II chunk addressing
// materialized as a FileLayout.
//
// Following Algorithm 1 ("for each data element accessed by thread j"),
// the layout packs the elements the program actually touches: ownership of
// an element a follows from the partitioning hyperplane — s = d.a
// determines the parallel-loop coordinate i_u = floor((s - beta) / alpha)
// of the iterations reaching it through the primary reference, and the
// primary nest's block decomposition maps i_u to its thread (clamping
// coordinates outside the loop range). Each thread's touched elements,
// taken in slab-major order, fill its chunks; chunk x starts at the
// Algorithm 1 address. Untouched elements (possible when the affine image
// of the iteration space does not cover the declared box) are appended
// past the patterned region in canonical order, so the mapping stays total
// and injective.
//
// Step II runs in two stages. The census marks the access image, counts
// each thread's touched elements, derives the chunk pattern from the
// largest count and checks both 32-bit limits below; it is all a transform
// plan needs (InterNodeLayout::census, internode_census). The
// materialization then orders the touched elements and places their
// slots. The constructor runs both, so a layout's pattern is exactly the
// census's.
//
// Memory follows the access image: a touched bitmap over the declared box
// with a 32-bit cumulative rank beside each 64-bit word (12 bytes per 64
// declared elements, 1.5 bits each), plus one 32-bit slot per touched
// element (4 bytes), stored in row-major rank order. The untouched tail is
// computed, not stored. So an array may touch at most 2^32 - 1 elements,
// and every touched element's slot must stay below 2^32; the census throws
// std::length_error when either limit is passed. From one of a thread's
// chunks to the next, chunk_start grows by at least the chunk size c, so
// the thread's largest slot is its last element's, chunk_start(t, (n_t -
// 1) / c) + (n_t - 1) % c, and the slot limit is checked once per thread
// in closed form.
//
// The build is linear in the iterations and the touched elements. A
// reference's row-major index is affine in the iteration vector, so each
// innermost row of a nest marks an arithmetic progression of bits. One
// row-major scan of the bitmap then yields every touched element's rank,
// s = d.a and owner; the owner is looked up (BlockDecomposition::scaled)
// only when s leaves the current decomposition block's s-interval, and a
// row along which s is constant is counted a word at a time. The census
// keeps only the per-thread counts, so its transient memory is the bitmap
// alone. The materialization records s in the same scan; an LSD radix sort
// on s (stable, so ties keep row-major order, and skipped when s is
// already in order) gives each thread's elements in Algorithm 1's order,
// and each decomposition block is one run of that order. It adds a
// transient 12 bytes per touched element, 8 for its s and 4 for its sorted
// position (16 when s spans more than one radix digit); each buffer is
// allocated at its exact size, and s is freed once the runs are found,
// before the slots are allocated.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>

#include "ir/program.hpp"
#include "layout/chunk_pattern.hpp"
#include "layout/file_layout.hpp"
#include "layout/partitioning.hpp"
#include "parallel/schedule.hpp"
#include "storage/topology.hpp"

namespace flo::layout {

/// Step II's census of one partitioned array: the chunk pattern a
/// transform plan reports and the counts its slots are placed by.
struct InterNodeCensus {
  ChunkPattern pattern;
  std::vector<std::uint64_t> share;  ///< touched elements per thread
  /// End of the chunked region: one past the largest slot a touched
  /// element takes (0 when nothing is touched).
  std::int64_t patterned_slots = 0;
};

class InterNodeLayout final : public FileLayout {
 public:
  /// Builds the layout for one partitioned array of `program`: the census,
  /// then the slot tables. `partitioning` must have partitioned == true.
  /// The chunk pattern is derived from `layers`/`leaf_cache_of_thread` with
  /// the chunk capped at the largest per-thread touched share (rounded up
  /// to `block_elems`).
  InterNodeLayout(const ir::Program& program, ir::ArrayId array,
                  const ArrayPartitioning& partitioning,
                  const parallel::ParallelSchedule& schedule,
                  std::vector<PatternLayer> layers,
                  std::vector<std::size_t> leaf_cache_of_thread,
                  std::uint64_t block_elems);

  /// The census alone, from the constructor's arguments: the same pattern
  /// and the same exceptions, without building a slot table.
  static InterNodeCensus census(const ir::Program& program, ir::ArrayId array,
                                const ArrayPartitioning& partitioning,
                                const parallel::ParallelSchedule& schedule,
                                std::vector<PatternLayer> layers,
                                std::vector<std::size_t> leaf_cache_of_thread,
                                std::uint64_t block_elems);

  std::int64_t slot(std::span<const std::int64_t> element) const override;
  std::int64_t file_slots() const override;
  std::string describe() const override;

  /// The thread owning a given element (exposed for tests and hints).
  parallel::ThreadId owner(std::span<const std::int64_t> element) const;

  /// Number of elements the program touches in this array.
  std::size_t touched_count() const { return slots_.size(); }

  const ChunkPattern& pattern() const { return pattern_; }
  const ArrayPartitioning& partitioning() const { return partitioning_; }

 private:
  /// Bits 0..63 of bits() mark row-major elements 64w .. 64w+63 of the
  /// declared box as touched; `rank` counts touched elements before 64w.
  /// Three 32-bit fields, so a word takes 12 bytes at 4-byte alignment.
  struct RankWord {
    std::uint32_t rank = 0;
    std::uint32_t halves[2] = {0, 0};  ///< the 64 bits, in memory order

    std::uint64_t bits() const {
      std::uint64_t bits;
      std::memcpy(&bits, halves, sizeof bits);
      return bits;
    }
    void set(std::uint64_t mask) {
      const std::uint64_t bits = this->bits() | mask;
      std::memcpy(halves, &bits, sizeof bits);
    }
  };
  static_assert(sizeof(RankWord) == 12 && alignof(RankWord) == 4);

  /// Validates the Step I result and marks and ranks the access image of
  /// every reference to `array`: the part of the build the census and the
  /// slot tables share. Leaves the pattern and the slots empty.
  InterNodeLayout(const ir::Program& program, ir::ArrayId array,
                  const ArrayPartitioning& partitioning,
                  const parallel::ParallelSchedule& schedule);

  /// The rest of the census over the marked image. When `s` is non-null,
  /// it receives every touched element's s = d.a in rank order.
  InterNodeCensus take_census(std::size_t threads, std::uint64_t element_size,
                              std::vector<PatternLayer> layers,
                              std::vector<std::size_t> leaf_cache_of_thread,
                              std::uint64_t block_elems,
                              std::vector<std::int64_t>* s) const;

  /// Touched elements per thread, from one row-major scan of the bitmap;
  /// with kRecordS it also stores each element's s at s_of_rank[rank].
  template <bool kRecordS>
  std::vector<std::uint64_t> count_shares(std::size_t threads,
                                          std::int64_t* s_of_rank) const;

  /// The materialization: orders the touched elements by (s, idx) and
  /// gives each its slot under pattern_, which the census sized and
  /// checked. `s` is take_census's record.
  void place_slots(std::vector<std::int64_t> s, std::size_t threads);

  parallel::ThreadId owner_of_s(std::int64_t s) const;

  /// Sets the touched bit of every element `ref` reaches over `iters`,
  /// one innermost row at a time; throws std::out_of_range if any
  /// coordinate leaves the declared box.
  void mark_access_image(const poly::IterationSpace& iters,
                         const poly::AffineReference& ref);

  /// Position of touched row-major element `idx` among all touched
  /// elements in row-major order.
  std::size_t rank_of(std::uint64_t idx) const;

  poly::DataSpace space_;
  ArrayPartitioning partitioning_;
  parallel::BlockDecomposition decomp_;  ///< of the primary nest
  parallel::ScaledBlocks s_blocks_;      ///< decomp_'s blocks by s
  ChunkPattern pattern_;

  /// The touched bitmap with its ranks, and the file slot of each touched
  /// element in rank order (Algorithm 1 packing). The trace walk calls
  /// slot() once per element access, so the lookup is a few plain loads
  /// and a popcount, not a hash probe.
  std::vector<RankWord> words_;
  std::vector<std::uint32_t> slots_;
  std::int64_t patterned_slots_ = 0;  ///< end of the chunked region
};

/// Convenience: runs Step I and Step II for one array; returns nullptr when
/// the array cannot be partitioned (caller keeps the canonical layout).
FileLayoutPtr build_internode_layout(const ir::Program& program,
                                     ir::ArrayId array,
                                     const parallel::ParallelSchedule& schedule,
                                     const storage::StorageTopology& topology,
                                     LayerMask mask = LayerMask::kBoth,
                                     const PartitioningOptions& options = {});

/// Step II only, against a precomputed Step I result — the path the
/// optimizer takes now that Step I runs behind a LayoutSolver backend
/// (core/layout_solver.hpp). Returns nullptr when !partitioning.partitioned.
FileLayoutPtr build_internode_layout(const ir::Program& program,
                                     ir::ArrayId array,
                                     const ArrayPartitioning& partitioning,
                                     const parallel::ParallelSchedule& schedule,
                                     const storage::StorageTopology& topology,
                                     LayerMask mask = LayerMask::kBoth);

/// Step II's census alone, with build_internode_layout's arguments: the
/// pattern its layout would carry, for a plan that reads no slot. Throws
/// what build_internode_layout throws; std::nullopt when
/// !partitioning.partitioned.
std::optional<InterNodeCensus> internode_census(
    const ir::Program& program, ir::ArrayId array,
    const ArrayPartitioning& partitioning,
    const parallel::ParallelSchedule& schedule,
    const storage::StorageTopology& topology,
    LayerMask mask = LayerMask::kBoth);

/// Each thread's cache index at the bottom layer of the Step II pattern:
/// its I/O node for kBoth/kIoOnly, its storage node for kStorageOnly,
/// derived from the schedule's thread -> compute-node mapping.
std::vector<std::size_t> leaf_cache_of_threads(
    const parallel::ParallelSchedule& schedule,
    const storage::StorageTopology& topology, LayerMask mask);

}  // namespace flo::layout
