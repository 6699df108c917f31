// Dense matrices and vectors over 64-bit integers with checked arithmetic.
//
// The layout optimizer's Step I works entirely in exact integer arithmetic
// (access matrices, hyperplane vectors, unimodular transformations). All
// entries are small in practice; every multiply/add is overflow-checked so a
// pathological input fails loudly instead of silently wrapping.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace flo::linalg {

using IntVector = std::vector<std::int64_t>;

/// Row-major dense integer matrix.
class IntMatrix {
 public:
  IntMatrix() = default;

  /// rows x cols zero matrix.
  IntMatrix(std::size_t rows, std::size_t cols);

  /// From nested initializer list; all rows must have equal width.
  IntMatrix(std::initializer_list<std::initializer_list<std::int64_t>> init);

  static IntMatrix identity(std::size_t n);

  /// Diagonal matrix from `diag`.
  static IntMatrix diagonal(std::span<const std::int64_t> diag);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  std::int64_t& at(std::size_t r, std::size_t c);
  std::int64_t at(std::size_t r, std::size_t c) const;
  std::int64_t& operator()(std::size_t r, std::size_t c) { return at(r, c); }
  std::int64_t operator()(std::size_t r, std::size_t c) const {
    return at(r, c);
  }

  /// Copies row r out as a vector.
  IntVector row(std::size_t r) const;

  /// Copies column c out as a vector.
  IntVector column(std::size_t c) const;

  IntMatrix transposed() const;

  /// Matrix product (checked arithmetic); dimension mismatch throws.
  IntMatrix operator*(const IntMatrix& rhs) const;

  /// Matrix-vector product A * v (v as column), result length == rows().
  IntVector operator*(std::span<const std::int64_t> v) const;

  IntMatrix operator+(const IntMatrix& rhs) const;
  IntMatrix operator-(const IntMatrix& rhs) const;
  bool operator==(const IntMatrix& rhs) const = default;

  /// Returns the submatrix keeping only the listed columns, in order.
  IntMatrix select_columns(std::span<const std::size_t> columns) const;

  /// Returns a copy with row r removed.
  IntMatrix without_row(std::size_t r) const;

  /// Elementary row operations (used by Gaussian elimination / HNF).
  void swap_rows(std::size_t a, std::size_t b);
  void scale_row(std::size_t r, std::int64_t factor);
  /// row[dst] += factor * row[src]
  void add_scaled_row(std::size_t dst, std::size_t src, std::int64_t factor);

  /// True iff every entry is zero.
  bool is_zero() const;

  /// True iff square and equal to the identity.
  bool is_identity() const;

  /// Exact determinant via the Bareiss fraction-free algorithm.
  /// Throws std::invalid_argument unless square.
  std::int64_t determinant() const;

  /// Rank over the rationals (computed with exact integer elimination).
  std::size_t rank() const;

  /// Human-readable multi-line rendering, e.g. "[ 1 0 ]\n[ 0 1 ]".
  std::string to_string() const;

 private:
  std::size_t index(std::size_t r, std::size_t c) const;

  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::int64_t> data_;
};

/// Row-vector * matrix product (checked); v.size() must equal m.rows().
IntVector row_times_matrix(std::span<const std::int64_t> v, const IntMatrix& m);

/// Dot product with checked arithmetic.
std::int64_t dot(std::span<const std::int64_t> a,
                 std::span<const std::int64_t> b);

/// Divides every entry by the gcd of all entries (no-op on the zero vector);
/// then flips signs so that the first nonzero entry is positive.
void make_primitive(IntVector& v);

/// True iff v has at least one nonzero entry.
bool is_nonzero(std::span<const std::int64_t> v);

}  // namespace flo::linalg
