#include "layout/constraint_network.hpp"

#include <algorithm>

#include "linalg/gcd.hpp"
#include "linalg/nullspace.hpp"

namespace flo::layout {

namespace {

/// The heaviest group (in the post-option ordering) the candidate both
/// satisfies and strides through — the group that defines alpha/beta for
/// this assignment. nullptr means d cannot separate threads at all.
const AccessMatrixGroup* primary_of(
    const linalg::IntVector& d, const std::vector<AccessMatrixGroup>& groups) {
  for (const auto& g : groups) {
    if (satisfies_group(d, g) &&
        parallel_stride(d, g.q, g.parallel_dim) != 0) {
      return &g;
    }
  }
  return nullptr;
}

std::size_t nonzero_count(const linalg::IntVector& v) {
  std::size_t n = 0;
  for (const std::int64_t e : v) n += e != 0;
  return n;
}

}  // namespace

ArrayPartitioning solve_constraint_network(
    const ir::Program& program, ir::ArrayId array,
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
    // Ablation parity with the greedy: program order instead of weight.
    std::stable_sort(groups.begin(), groups.end(),
                     [](const AccessMatrixGroup& a,
                        const AccessMatrixGroup& b) {
                       return a.members.front() < b.members.front();
                     });
  }

  // --- Variable domain: candidate hyperplanes for this array. Each
  // group's own null-space basis seeds the domain (any of them satisfies
  // at least that group); pairwise primitive sums widen it the same way
  // the greedy's pick_hyperplane fallback does.
  std::vector<linalg::IntVector> domain;
  // make_primitive canonicalizes (gcd-reduced, first nonzero positive):
  // satisfaction and |stride| are sign-invariant, so one representative per
  // direction suffices; finalize_partitioning re-flips for alpha > 0.
  const auto add_candidate = [&](linalg::IntVector v) {
    if (!linalg::is_nonzero(v)) return;
    linalg::make_primitive(v);
    if (std::find(domain.begin(), domain.end(), v) == domain.end()) {
      domain.push_back(std::move(v));
    }
  };
  for (const auto& g : groups) {
    for (auto& v : linalg::left_null_space(g.constraint)) {
      add_candidate(std::move(v));
    }
  }
  const std::size_t seeds = domain.size();
  for (std::size_t i = 0; i < seeds; ++i) {
    for (std::size_t j = i + 1; j < seeds; ++j) {
      linalg::IntVector sum(domain[i]);
      for (std::size_t k = 0; k < sum.size(); ++k) {
        sum[k] = linalg::checked_add(sum[k], domain[j][k]);
      }
      add_candidate(std::move(sum));
    }
  }
  // The unimodular reference point anchors the domain: the cost-ranked
  // selection below always sees it, so this backend's recomputed weight
  // can never fall under the greedy's — the solver-agreement oracle's
  // dominance invariant.
  const ArrayPartitioning greedy =
      partition_array(program, array, schedule, options);
  if (greedy.partitioned) add_candidate(greedy.hyperplane);

  std::vector<linalg::IntVector> active;
  for (const auto& d : domain) {
    if (primary_of(d, groups) != nullptr) active.push_back(d);
  }
  if (active.empty()) return result;  // no candidate separates threads

  // --- Iterative propagation: constraints tighten the domain in cost
  // order. A constraint no surviving candidate (with a usable primary)
  // can absorb stays soft — its weight is simply not collected.
  for (const auto& g : groups) {
    std::vector<linalg::IntVector> kept;
    for (const auto& d : active) {
      if (satisfies_group(d, g) && primary_of(d, groups) != nullptr) {
        kept.push_back(d);
      }
    }
    if (!kept.empty()) active = std::move(kept);
  }
  // Propagation can commit to a branch the greedy skipped; re-adding the
  // reference point keeps the final ranking total over both.
  if (greedy.partitioned) {
    linalg::IntVector ref = greedy.hyperplane;
    linalg::make_primitive(ref);
    if (std::find(active.begin(), active.end(), ref) == active.end()) {
      active.push_back(std::move(ref));
    }
  }

  // --- Cost-ranked assignment: maximize recomputed satisfied weight;
  // break ties toward more satisfied groups, then sparser, then
  // lexicographically smaller hyperplanes (fully deterministic).
  const linalg::IntVector* best = nullptr;
  std::int64_t best_weight = 0;
  std::size_t best_groups = 0;
  for (const auto& d : active) {
    std::int64_t weight = 0;
    std::size_t satisfied = 0;
    for (const auto& g : groups) {
      if (satisfies_group(d, g)) {
        weight = linalg::checked_add(weight, g.weight);
        ++satisfied;
      }
    }
    const bool better =
        best == nullptr || weight > best_weight ||
        (weight == best_weight &&
         (satisfied > best_groups ||
          (satisfied == best_groups &&
           (nonzero_count(d) < nonzero_count(*best) ||
            (nonzero_count(d) == nonzero_count(*best) && d < *best)))));
    if (better) {
      best = &d;
      best_weight = weight;
      best_groups = satisfied;
    }
  }
  const AccessMatrixGroup* primary = primary_of(*best, groups);
  result.satisfied_weight = best_weight;
  result.satisfied_groups = best_groups;
  finalize_partitioning(result, *best, *primary, program, array);
  return result;
}

}  // namespace flo::layout
