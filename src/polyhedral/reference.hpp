// Affine array references: a = Q * i + q (Section 3 of the paper).
#pragma once

#include <string>

#include "linalg/int_matrix.hpp"
#include "polyhedral/data_space.hpp"
#include "polyhedral/iteration_space.hpp"

namespace flo::poly {

/// An affine mapping from an n-dimensional iteration space to an
/// m-dimensional data space: element = access_matrix * iteration + offset.
class AffineReference {
 public:
  AffineReference() = default;

  /// `access` is m x n; `offset` has length m.
  AffineReference(linalg::IntMatrix access, linalg::IntVector offset);

  /// Identity reference A[i1, ..., im] for an m-dim array in an n-deep nest
  /// (n >= m); maps loop k to dimension k.
  static AffineReference identity(std::size_t array_dims,
                                  std::size_t nest_depth);

  /// Convenience: builds Q from one row per array dimension, where row d has
  /// a single 1 in column `loop_for_dim[d]` (or is all-zero for
  /// loop_for_dim[d] == kNone). Offsets default to zero.
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  static AffineReference from_dim_map(std::span<const std::size_t> loop_for_dim,
                                      std::size_t nest_depth);

  const linalg::IntMatrix& access_matrix() const { return access_; }
  const linalg::IntVector& offset() const { return offset_; }

  std::size_t array_dims() const { return access_.rows(); }
  std::size_t nest_depth() const { return access_.cols(); }

  /// Evaluates the reference at an iteration point.
  linalg::IntVector evaluate(std::span<const std::int64_t> iteration) const;

  /// evaluate() into a caller-owned buffer of array_dims() entries, so hot
  /// loops over an iteration space allocate nothing per access.
  void evaluate_into(std::span<const std::int64_t> iteration,
                     std::span<std::int64_t> element) const;

  /// Returns the transformed reference r' = D * r (Section 4.1), i.e. the
  /// reference with access matrix D*Q and offset D*q.
  AffineReference transformed(const linalg::IntMatrix& d) const;

  /// True iff every produced index stays inside `data` for every iteration
  /// in `iters` (checked at the corners; affine maps are monotone per axis,
  /// which suffices for box domains).
  bool stays_within(const IterationSpace& iters, const DataSpace& data) const;

  bool operator==(const AffineReference& rhs) const = default;

  std::string to_string() const;

 private:
  linalg::IntMatrix access_;
  linalg::IntVector offset_;
};

}  // namespace flo::poly
