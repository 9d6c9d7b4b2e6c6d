#pragma once
// Dense row-major matrix of doubles.
//
// This is the storage substrate for the whole library: HSS generators,
// H-matrix low-rank factors, kernel tiles, sample blocks and the small dense
// problems inside the ULV factorization all use this type.  The class stays
// deliberately small — value semantics, bounds-checked element access in
// debug builds, cheap block copy in/out — and all heavy numerics live in the
// free functions of blas.hpp / qr.hpp / svd.hpp etc.

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "util/contracts.hpp"

namespace khss::la {

class Matrix {
 public:
  Matrix() = default;
  Matrix(int rows, int cols) : rows_(rows), cols_(cols) {
    KHSS_REQUIRE(rows >= 0 && cols >= 0,
                 "Matrix: negative shape " << rows << " x " << cols);
    data_.assign(static_cast<std::size_t>(rows) * cols, 0.0);
  }

  /// Build from a nested initializer list (test convenience).
  Matrix(std::initializer_list<std::initializer_list<double>> init);

  static Matrix identity(int n);
  static Matrix zeros(int rows, int cols) { return Matrix(rows, cols); }

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }
  std::size_t size() const { return data_.size(); }
  std::size_t bytes() const { return data_.size() * sizeof(double); }

  // Per-element access is the innermost loop of everything; bounds checks
  // stay debug-only here (KHSS_ASSERT_DBG), unlike the block helpers below,
  // which validate in every build type (see util/contracts.hpp).
  double& operator()(int i, int j) {
    KHSS_ASSERT_DBG(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[static_cast<std::size_t>(i) * cols_ + j];
  }
  double operator()(int i, int j) const {
    KHSS_ASSERT_DBG(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return data_[static_cast<std::size_t>(i) * cols_ + j];
  }

  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }
  double* row(int i) { return data_.data() + static_cast<std::size_t>(i) * cols_; }
  const double* row(int i) const {
    return data_.data() + static_cast<std::size_t>(i) * cols_;
  }

  void fill(double v) { data_.assign(data_.size(), v); }
  void resize(int rows, int cols) {
    KHSS_REQUIRE(rows >= 0 && cols >= 0,
                 "Matrix::resize: negative shape " << rows << " x " << cols);
    rows_ = rows;
    cols_ = cols;
    data_.assign(static_cast<std::size_t>(rows) * cols, 0.0);
  }

  /// Copy of the block starting at (i0, j0) with shape (r, c).
  Matrix block(int i0, int j0, int r, int c) const;

  /// Overwrite the block at (i0, j0) with B.
  void set_block(int i0, int j0, const Matrix& b);

  /// Add B into the block at (i0, j0).
  void add_block(int i0, int j0, const Matrix& b, double alpha = 1.0);

  /// Copy of selected rows, in the given order.
  Matrix rows_subset(const std::vector<int>& idx) const;

  /// Copy of selected columns, in the given order.
  Matrix cols_subset(const std::vector<int>& idx) const;

  Matrix transposed() const;

  /// In-place scale.
  void scale(double alpha);

  /// this += alpha * other (shapes must match).
  void add(const Matrix& other, double alpha = 1.0);

  /// Add alpha to each diagonal entry (square or not; min(rows, cols) used).
  void shift_diagonal(double alpha);

  bool same_shape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<double> data_;
};

/// A vector is a plain std::vector<double>.
using Vector = std::vector<double>;

}  // namespace khss::la
