#include "linalg/int_matrix.hpp"

#include <cstdlib>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "linalg/gcd.hpp"

namespace flo::linalg {

IntMatrix::IntMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0) {}

IntMatrix::IntMatrix(
    std::initializer_list<std::initializer_list<std::int64_t>> init) {
  rows_ = init.size();
  cols_ = rows_ == 0 ? 0 : init.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& row : init) {
    if (row.size() != cols_) {
      throw std::invalid_argument("IntMatrix: ragged initializer list");
    }
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

IntMatrix IntMatrix::identity(std::size_t n) {
  IntMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m.at(i, i) = 1;
  return m;
}

IntMatrix IntMatrix::diagonal(std::span<const std::int64_t> diag) {
  IntMatrix m(diag.size(), diag.size());
  for (std::size_t i = 0; i < diag.size(); ++i) m.at(i, i) = diag[i];
  return m;
}

std::size_t IntMatrix::index(std::size_t r, std::size_t c) const {
  if (r >= rows_ || c >= cols_) {
    throw std::out_of_range("IntMatrix index out of range");
  }
  return r * cols_ + c;
}

std::int64_t& IntMatrix::at(std::size_t r, std::size_t c) {
  return data_[index(r, c)];
}

std::int64_t IntMatrix::at(std::size_t r, std::size_t c) const {
  return data_[index(r, c)];
}

IntVector IntMatrix::row(std::size_t r) const {
  IntVector out(cols_);
  for (std::size_t c = 0; c < cols_; ++c) out[c] = at(r, c);
  return out;
}

IntVector IntMatrix::column(std::size_t c) const {
  IntVector out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = at(r, c);
  return out;
}

IntMatrix IntMatrix::transposed() const {
  IntMatrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) out.at(c, r) = at(r, c);
  }
  return out;
}

IntMatrix IntMatrix::operator*(const IntMatrix& rhs) const {
  if (cols_ != rhs.rows_) {
    throw std::invalid_argument("IntMatrix multiply: dimension mismatch");
  }
  IntMatrix out(rows_, rhs.cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const std::int64_t lhs_rk = at(r, k);
      if (lhs_rk == 0) continue;
      for (std::size_t c = 0; c < rhs.cols_; ++c) {
        out.at(r, c) =
            checked_add(out.at(r, c), checked_mul(lhs_rk, rhs.at(k, c)));
      }
    }
  }
  return out;
}

IntVector IntMatrix::operator*(std::span<const std::int64_t> v) const {
  if (v.size() != cols_) {
    throw std::invalid_argument("IntMatrix * vector: dimension mismatch");
  }
  IntVector out(rows_, 0);
  for (std::size_t r = 0; r < rows_; ++r) {
    std::int64_t acc = 0;
    for (std::size_t c = 0; c < cols_; ++c) {
      acc = checked_add(acc, checked_mul(at(r, c), v[c]));
    }
    out[r] = acc;
  }
  return out;
}

IntMatrix IntMatrix::operator+(const IntMatrix& rhs) const {
  if (rows_ != rhs.rows_ || cols_ != rhs.cols_) {
    throw std::invalid_argument("IntMatrix add: dimension mismatch");
  }
  IntMatrix out(rows_, cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) {
    out.data_[i] = checked_add(data_[i], rhs.data_[i]);
  }
  return out;
}

IntMatrix IntMatrix::operator-(const IntMatrix& rhs) const {
  if (rows_ != rhs.rows_ || cols_ != rhs.cols_) {
    throw std::invalid_argument("IntMatrix subtract: dimension mismatch");
  }
  IntMatrix out(rows_, cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) {
    out.data_[i] = checked_sub(data_[i], rhs.data_[i]);
  }
  return out;
}

IntMatrix IntMatrix::select_columns(
    std::span<const std::size_t> columns) const {
  IntMatrix out(rows_, columns.size());
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t j = 0; j < columns.size(); ++j) {
      out.at(r, j) = at(r, columns[j]);
    }
  }
  return out;
}

IntMatrix IntMatrix::without_row(std::size_t r) const {
  if (r >= rows_) throw std::out_of_range("without_row: bad row");
  IntMatrix out(rows_ - 1, cols_);
  for (std::size_t i = 0, o = 0; i < rows_; ++i) {
    if (i == r) continue;
    for (std::size_t c = 0; c < cols_; ++c) out.at(o, c) = at(i, c);
    ++o;
  }
  return out;
}

void IntMatrix::swap_rows(std::size_t a, std::size_t b) {
  if (a >= rows_ || b >= rows_) throw std::out_of_range("swap_rows");
  if (a == b) return;
  for (std::size_t c = 0; c < cols_; ++c) std::swap(at(a, c), at(b, c));
}

void IntMatrix::scale_row(std::size_t r, std::int64_t factor) {
  for (std::size_t c = 0; c < cols_; ++c) at(r, c) = checked_mul(at(r, c), factor);
}

void IntMatrix::add_scaled_row(std::size_t dst, std::size_t src,
                               std::int64_t factor) {
  for (std::size_t c = 0; c < cols_; ++c) {
    at(dst, c) = checked_add(at(dst, c), checked_mul(factor, at(src, c)));
  }
}

bool IntMatrix::is_zero() const {
  for (std::int64_t v : data_) {
    if (v != 0) return false;
  }
  return true;
}

bool IntMatrix::is_identity() const {
  if (rows_ != cols_) return false;
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      if (at(r, c) != (r == c ? 1 : 0)) return false;
    }
  }
  return true;
}

std::int64_t IntMatrix::determinant() const {
  if (rows_ != cols_) {
    throw std::invalid_argument("determinant: matrix not square");
  }
  if (rows_ == 0) return 1;
  // Bareiss fraction-free elimination: all divisions are exact.
  IntMatrix a = *this;
  std::int64_t sign = 1;
  std::int64_t prev = 1;
  const std::size_t n = rows_;
  for (std::size_t k = 0; k + 1 < n; ++k) {
    if (a.at(k, k) == 0) {
      std::size_t pivot = k + 1;
      while (pivot < n && a.at(pivot, k) == 0) ++pivot;
      if (pivot == n) return 0;
      a.swap_rows(k, pivot);
      sign = -sign;
    }
    for (std::size_t i = k + 1; i < n; ++i) {
      for (std::size_t j = k + 1; j < n; ++j) {
        const std::int64_t num = checked_sub(
            checked_mul(a.at(i, j), a.at(k, k)),
            checked_mul(a.at(i, k), a.at(k, j)));
        a.at(i, j) = num / prev;  // exact by Bareiss' identity
      }
      a.at(i, k) = 0;
    }
    prev = a.at(k, k);
  }
  return checked_mul(sign, a.at(n - 1, n - 1));
}

std::size_t IntMatrix::rank() const {
  if (empty()) return 0;
  // Integer row echelon via gcd-based elimination (no divisions needed for
  // rank; we only need to know which rows survive).
  IntMatrix a = *this;
  std::size_t rank = 0;
  std::size_t col = 0;
  while (rank < a.rows_ && col < a.cols_) {
    std::size_t pivot = rank;
    while (pivot < a.rows_ && a.at(pivot, col) == 0) ++pivot;
    if (pivot == a.rows_) {
      ++col;
      continue;
    }
    a.swap_rows(rank, pivot);
    for (std::size_t i = rank + 1; i < a.rows_; ++i) {
      while (a.at(i, col) != 0) {
        // Euclidean step between rows keeps all entries integral.
        const std::int64_t q = a.at(i, col) / a.at(rank, col);
        a.add_scaled_row(i, rank, -q);
        if (a.at(i, col) != 0) a.swap_rows(i, rank);
      }
    }
    ++rank;
    ++col;
  }
  return rank;
}

std::string IntMatrix::to_string() const {
  std::ostringstream os;
  for (std::size_t r = 0; r < rows_; ++r) {
    os << "[";
    for (std::size_t c = 0; c < cols_; ++c) os << ' ' << at(r, c);
    os << " ]";
    if (r + 1 < rows_) os << '\n';
  }
  return os.str();
}

IntVector row_times_matrix(std::span<const std::int64_t> v,
                           const IntMatrix& m) {
  if (v.size() != m.rows()) {
    throw std::invalid_argument("row_times_matrix: dimension mismatch");
  }
  IntVector out(m.cols(), 0);
  for (std::size_t c = 0; c < m.cols(); ++c) {
    std::int64_t acc = 0;
    for (std::size_t r = 0; r < m.rows(); ++r) {
      acc = checked_add(acc, checked_mul(v[r], m.at(r, c)));
    }
    out[c] = acc;
  }
  return out;
}

std::int64_t dot(std::span<const std::int64_t> a,
                 std::span<const std::int64_t> b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("dot: dimension mismatch");
  }
  std::int64_t acc = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    acc = checked_add(acc, checked_mul(a[i], b[i]));
  }
  return acc;
}

void make_primitive(IntVector& v) {
  const std::int64_t g = gcd(std::span<const std::int64_t>(v));
  if (g > 1) {
    for (auto& e : v) e /= g;
  }
  for (std::int64_t e : v) {
    if (e != 0) {
      if (e < 0) {
        for (auto& x : v) x = -x;
      }
      break;
    }
  }
}

bool is_nonzero(std::span<const std::int64_t> v) {
  for (std::int64_t e : v) {
    if (e != 0) return true;
  }
  return false;
}

}  // namespace flo::linalg
