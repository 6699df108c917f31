#include "polyhedral/reference.hpp"

#include <sstream>
#include <stdexcept>

#include "linalg/gcd.hpp"

namespace flo::poly {

AffineReference::AffineReference(linalg::IntMatrix access,
                                 linalg::IntVector offset)
    : access_(std::move(access)), offset_(std::move(offset)) {
  if (offset_.size() != access_.rows()) {
    throw std::invalid_argument(
        "AffineReference: offset length must equal access matrix rows");
  }
}

AffineReference AffineReference::identity(std::size_t array_dims,
                                          std::size_t nest_depth) {
  if (array_dims > nest_depth) {
    throw std::invalid_argument(
        "AffineReference::identity: array dims exceed nest depth");
  }
  linalg::IntMatrix q(array_dims, nest_depth);
  for (std::size_t d = 0; d < array_dims; ++d) q.at(d, d) = 1;
  return AffineReference(std::move(q), linalg::IntVector(array_dims, 0));
}

AffineReference AffineReference::from_dim_map(
    std::span<const std::size_t> loop_for_dim, std::size_t nest_depth) {
  linalg::IntMatrix q(loop_for_dim.size(), nest_depth);
  for (std::size_t d = 0; d < loop_for_dim.size(); ++d) {
    const std::size_t loop = loop_for_dim[d];
    if (loop == kNone) continue;
    if (loop >= nest_depth) {
      throw std::invalid_argument("from_dim_map: loop index out of range");
    }
    q.at(d, loop) = 1;
  }
  return AffineReference(std::move(q),
                         linalg::IntVector(loop_for_dim.size(), 0));
}

linalg::IntVector AffineReference::evaluate(
    std::span<const std::int64_t> iteration) const {
  linalg::IntVector out(access_.rows(), 0);
  evaluate_into(iteration, out);
  return out;
}

void AffineReference::evaluate_into(std::span<const std::int64_t> iteration,
                                    std::span<std::int64_t> element) const {
  if (iteration.size() != access_.cols() || element.size() != access_.rows()) {
    throw std::invalid_argument(
        "AffineReference::evaluate: dimension mismatch");
  }
  for (std::size_t d = 0; d < access_.rows(); ++d) {
    std::int64_t acc = 0;
    for (std::size_t k = 0; k < access_.cols(); ++k) {
      acc = linalg::checked_add(
          acc, linalg::checked_mul(access_.at(d, k), iteration[k]));
    }
    element[d] = linalg::checked_add(acc, offset_[d]);
  }
}

AffineReference AffineReference::transformed(const linalg::IntMatrix& d) const {
  if (d.cols() != access_.rows()) {
    throw std::invalid_argument("transformed: dimension mismatch");
  }
  return AffineReference(d * access_, d * offset_);
}

bool AffineReference::stays_within(const IterationSpace& iters,
                                   const DataSpace& data) const {
  if (access_.cols() != iters.depth() || access_.rows() != data.dims()) {
    return false;
  }
  // An affine function over a box attains per-coordinate extrema at bound
  // values chosen per sign of the coefficient; check the min and max of each
  // output coordinate independently.
  for (std::size_t d = 0; d < access_.rows(); ++d) {
    std::int64_t lo = offset_[d];
    std::int64_t hi = offset_[d];
    for (std::size_t k = 0; k < access_.cols(); ++k) {
      const std::int64_t coeff = access_.at(d, k);
      if (coeff == 0) continue;
      const auto& b = iters.bound(k);
      const std::int64_t at_lower = linalg::checked_mul(coeff, b.lower);
      const std::int64_t at_upper = linalg::checked_mul(coeff, b.upper);
      lo = linalg::checked_add(lo, std::min(at_lower, at_upper));
      hi = linalg::checked_add(hi, std::max(at_lower, at_upper));
    }
    if (lo < 0 || hi >= data.extent(d)) return false;
  }
  return true;
}

std::string AffineReference::to_string() const {
  std::ostringstream os;
  os << "A[";
  for (std::size_t d = 0; d < access_.rows(); ++d) {
    if (d > 0) os << ", ";
    bool printed = false;
    for (std::size_t k = 0; k < access_.cols(); ++k) {
      const std::int64_t c = access_.at(d, k);
      if (c == 0) continue;
      if (printed && c > 0) os << "+";
      if (c == -1) {
        os << "-";
      } else if (c != 1) {
        os << c << "*";
      }
      os << "i" << (k + 1);
      printed = true;
    }
    if (offset_[d] != 0 || !printed) {
      if (printed && offset_[d] >= 0) os << "+";
      os << offset_[d];
    }
  }
  os << "]";
  return os.str();
}

}  // namespace flo::poly
