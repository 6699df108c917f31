#include "layout/partitioning.hpp"

#include <algorithm>

#include "linalg/gcd.hpp"
#include "linalg/nullspace.hpp"
#include "linalg/unimodular.hpp"
#include "polyhedral/hyperplane.hpp"

namespace flo::layout {

std::int64_t parallel_stride(std::span<const std::int64_t> d,
                             const linalg::IntMatrix& q, std::size_t u) {
  return linalg::dot(d, q.column(u));
}

bool satisfies_group(std::span<const std::int64_t> d,
                     const AccessMatrixGroup& group) {
  return linalg::in_left_null_space(d, group.constraint);
}

std::int64_t satisfied_weight_of(std::span<const std::int64_t> d,
                                 const std::vector<AccessMatrixGroup>& groups) {
  std::int64_t weight = 0;
  for (const auto& g : groups) {
    if (satisfies_group(d, g)) weight = linalg::checked_add(weight, g.weight);
  }
  return weight;
}

namespace {

/// Selects a usable hyperplane vector from the common left null space of
/// `constraints`: prefer a basis vector with nonzero stride through the
/// primary access matrix; fall back to pairwise sums of basis vectors.
std::optional<linalg::IntVector> pick_hyperplane(
    const std::vector<linalg::IntMatrix>& constraints,
    const linalg::IntMatrix& primary_q, std::size_t primary_u) {
  const auto basis =
      linalg::left_null_space(linalg::hconcat(constraints));
  if (basis.empty()) return std::nullopt;
  for (const auto& v : basis) {
    if (parallel_stride(v, primary_q, primary_u) != 0) return v;
  }
  for (std::size_t i = 0; i < basis.size(); ++i) {
    for (std::size_t j = i + 1; j < basis.size(); ++j) {
      linalg::IntVector sum(basis[i]);
      for (std::size_t k = 0; k < sum.size(); ++k) {
        sum[k] = linalg::checked_add(sum[k], basis[j][k]);
      }
      linalg::make_primitive(sum);
      if (linalg::is_nonzero(sum) &&
          parallel_stride(sum, primary_q, primary_u) != 0) {
        return sum;
      }
    }
  }
  return std::nullopt;
}

}  // namespace

std::vector<AccessMatrixGroup> collect_access_groups(
    const ir::Program& program, ir::ArrayId array) {
  std::vector<AccessMatrixGroup> groups;
  for (std::size_t n = 0; n < program.nests().size(); ++n) {
    const auto& nest = program.nests()[n];
    for (std::size_t r = 0; r < nest.references().size(); ++r) {
      const auto& ref = nest.references()[r];
      if (ref.array != array) continue;
      const linalg::IntMatrix& q = ref.map.access_matrix();
      const std::size_t u = nest.parallel_dim();
      auto it = std::find_if(groups.begin(), groups.end(),
                             [&](const AccessMatrixGroup& g) {
                               return g.q == q && g.parallel_dim == u;
                             });
      if (it == groups.end()) {
        AccessMatrixGroup g;
        g.q = q;
        g.parallel_dim = u;
        g.constraint =
            q * poly::hyperplane_direction_basis(nest.depth(), u);
        groups.push_back(std::move(g));
        it = std::prev(groups.end());
      }
      it->weight =
          linalg::checked_add(it->weight, nest.reference_trip_count());
      it->members.emplace_back(n, r);
    }
  }
  std::stable_sort(groups.begin(), groups.end(),
                   [](const AccessMatrixGroup& a, const AccessMatrixGroup& b) {
                     return a.weight > b.weight;
                   });
  return groups;
}

ArrayPartitioning partition_array(const ir::Program& program,
                                  ir::ArrayId array,
                                  const parallel::ParallelSchedule& schedule,
                                  const PartitioningOptions& options) {
  ArrayPartitioning result;
  const auto& decl = program.array(array);
  result.transform = linalg::IntMatrix::identity(decl.dims());

  std::vector<AccessMatrixGroup> groups =
      collect_access_groups(program, array);
  result.total_groups = groups.size();
  for (const auto& g : groups) {
    result.total_weight = linalg::checked_add(result.total_weight, g.weight);
  }
  if (groups.empty()) return result;
  if (!options.weighted) {
    // Ablation: consider groups in (nest, ref) program order.
    std::stable_sort(groups.begin(), groups.end(),
                     [](const AccessMatrixGroup& a,
                        const AccessMatrixGroup& b) {
                       return a.members.front() < b.members.front();
                     });
  }

  // Heaviest-first greedy: keep adding constraint blocks while a common
  // nonzero hyperplane with nonzero parallel stride survives.
  std::vector<linalg::IntMatrix> accepted;
  std::vector<const AccessMatrixGroup*> accepted_groups;
  std::optional<linalg::IntVector> best;
  for (const auto& g : groups) {
    std::vector<linalg::IntMatrix> candidate = accepted;
    candidate.push_back(g.constraint);
    const auto& primary = accepted_groups.empty() ? g : *accepted_groups[0];
    const auto d =
        pick_hyperplane(candidate, primary.q, primary.parallel_dim);
    if (!d) continue;
    accepted = std::move(candidate);
    accepted_groups.push_back(&g);
    best = *d;
    result.satisfied_weight =
        linalg::checked_add(result.satisfied_weight, g.weight);
    ++result.satisfied_groups;
  }
  if (!best) return result;  // no reference admits a partitioning hyperplane

  finalize_partitioning(result, std::move(*best), *accepted_groups.front(),
                        program, array);

  (void)schedule;  // ownership mapping consumes the schedule in internode.cpp
  return result;
}

void finalize_partitioning(ArrayPartitioning& result, linalg::IntVector d,
                           const AccessMatrixGroup& primary,
                           const ir::Program& program, ir::ArrayId array) {
  const auto& decl = program.array(array);
  std::int64_t alpha = parallel_stride(d, primary.q, primary.parallel_dim);
  if (alpha < 0) {
    for (auto& e : d) e = -e;
    alpha = -alpha;
  }

  result.partitioned = true;
  result.partition_dim = 0;
  result.transform = linalg::complete_to_unimodular(d, result.partition_dim);
  result.hyperplane = d;
  result.alpha = alpha;
  const auto& primary_ref =
      program.nests()[primary.members.front().first]
          .references()[primary.members.front().second];
  result.beta = linalg::dot(d, primary_ref.map.offset());
  result.primary_nest = primary.members.front().first;

  const auto [s_min, s_max] = hyperplane_range(d, decl.space());
  result.s_min = s_min;
  result.s_max = s_max;
}

std::pair<std::int64_t, std::int64_t> hyperplane_range(
    std::span<const std::int64_t> d, const poly::DataSpace& space) {
  std::int64_t s_min = 0;
  std::int64_t s_max = 0;
  for (std::size_t k = 0; k < space.dims(); ++k) {
    const std::int64_t hi = linalg::checked_mul(d[k], space.extent(k) - 1);
    s_min = linalg::checked_add(s_min, std::min<std::int64_t>(0, hi));
    s_max = linalg::checked_add(s_max, std::max<std::int64_t>(0, hi));
  }
  return {s_min, s_max};
}

}  // namespace flo::layout
