// Step I: array partitioning via unimodular data transformation
// (Section 4.1 of the paper).
//
// Given the parallelization (iteration blocks along loop u, round-robin to
// threads), find for each array a unimodular D such that data touched by
// one thread lands on one slab of the transformed data space:
//
//     h_A . D . Q_i . E_u = 0           (Eq. 3, one system per reference)
//
// with h_A = e_v (v = 0 here). Row v of D is therefore a vector d in the
// common left null space of the matrices Q_i * E_u, found by integer
// Gaussian elimination (Hermite reduction). When the references disagree,
// access matrices are weighted by dynamic reference counts (Eq. 5) and the
// heaviest-first maximal consistent subset wins.
#pragma once

#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "ir/program.hpp"
#include "linalg/int_matrix.hpp"
#include "parallel/schedule.hpp"

namespace flo::layout {

/// A group of references sharing one access matrix (and one parallel dim).
struct AccessMatrixGroup {
  linalg::IntMatrix q;            ///< the access matrix
  std::size_t parallel_dim = 0;   ///< u of the enclosing nest(s)
  std::int64_t weight = 0;        ///< W(Q) = sum of trip counts (Eq. 5)
  /// (nest, ref) pairs in this group.
  std::vector<std::pair<std::size_t, std::size_t>> members;
  /// Q * E_u^T-basis: the constraint block d must annihilate.
  linalg::IntMatrix constraint;
};

/// Result of Step I for one array.
struct ArrayPartitioning {
  bool partitioned = false;

  /// The unimodular data transformation; identity when !partitioned.
  linalg::IntMatrix transform;

  /// d = row `partition_dim` of `transform` (the data hyperplane vector).
  linalg::IntVector hyperplane;
  std::size_t partition_dim = 0;  ///< v (always 0 in this implementation)

  /// For the primary (heaviest satisfied) reference r = Q i + q:
  /// s(a) = d.a relates to the parallel loop by s = alpha * i_u + beta.
  std::int64_t alpha = 0;  ///< d . (Q e_u), made positive by sign choice
  std::int64_t beta = 0;   ///< d . q
  std::size_t primary_nest = 0;  ///< nest of the primary reference

  /// Range of s over the array's data space (inclusive).
  std::int64_t s_min = 0;
  std::int64_t s_max = 0;

  /// Weight of satisfied vs. total references (for the "72% of arrays
  /// optimized" statistic and diagnostics).
  std::int64_t satisfied_weight = 0;
  std::int64_t total_weight = 0;
  std::size_t satisfied_groups = 0;
  std::size_t total_groups = 0;
};

/// Groups all references to `array` by access matrix, with Eq. 5 weights,
/// sorted by descending weight.
std::vector<AccessMatrixGroup> collect_access_groups(
    const ir::Program& program, ir::ArrayId array);

/// d . (Q e_u): how the hyperplane value changes per step of the parallel
/// loop through access matrix Q. Nonzero means d actually separates threads.
std::int64_t parallel_stride(std::span<const std::int64_t> d,
                             const linalg::IntMatrix& q, std::size_t u);

/// Whether hyperplane d satisfies the group's Eq. 3 system (d annihilates
/// its Q * E_u constraint block).
bool satisfies_group(std::span<const std::int64_t> d,
                     const AccessMatrixGroup& group);

/// Sum of weights of the groups d satisfies — the cost both solver
/// backends (and the solver-agreement oracle) rank hyperplanes by.
std::int64_t satisfied_weight_of(std::span<const std::int64_t> d,
                                 const std::vector<AccessMatrixGroup>& groups);

/// Completes `result` from a chosen hyperplane and its primary group:
/// sign normalization (alpha > 0 through the primary reference), the
/// unimodular completion, beta, and the s-range over the data box. Shared
/// by the unimodular greedy and the constraint-network backend so both
/// produce identical finalized fields for the same (d, primary) choice.
void finalize_partitioning(ArrayPartitioning& result, linalg::IntVector d,
                           const AccessMatrixGroup& primary,
                           const ir::Program& program, ir::ArrayId array);

/// The range [min, max] of s = d.a over the box of `space`, in checked
/// arithmetic (throws std::overflow_error if some s does not fit).
std::pair<std::int64_t, std::int64_t> hyperplane_range(
    std::span<const std::int64_t> d, const poly::DataSpace& space);

/// Options for Step I (the unweighted variant feeds the ablation bench).
struct PartitioningOptions {
  /// If false, groups are considered in program order instead of by weight
  /// (ablation of Eq. 5's weighted-greedy selection).
  bool weighted = true;
};

/// Runs Step I for one array of the program under the given schedule.
ArrayPartitioning partition_array(const ir::Program& program,
                                  ir::ArrayId array,
                                  const parallel::ParallelSchedule& schedule,
                                  const PartitioningOptions& options = {});

}  // namespace flo::layout
