#include "la/matrix.hpp"

#include <cstring>

namespace khss::la {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> init) {
  rows_ = static_cast<int>(init.size());
  cols_ = rows_ == 0 ? 0 : static_cast<int>(init.begin()->size());
  data_.reserve(static_cast<std::size_t>(rows_) * cols_);
  for (const auto& r : init) {
    assert(static_cast<int>(r.size()) == cols_);
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::identity(int n) {
  Matrix I(n, n);
  for (int i = 0; i < n; ++i) I(i, i) = 1.0;
  return I;
}

Matrix Matrix::block(int i0, int j0, int r, int c) const {
  KHSS_REQUIRE(i0 >= 0 && j0 >= 0 && r >= 0 && c >= 0 && i0 + r <= rows_ &&
                   j0 + c <= cols_,
               "Matrix::block: slice (" << i0 << ", " << j0 << ") + " << r
                   << " x " << c << " exceeds " << rows_ << " x " << cols_);
  Matrix out(r, c);
  if (c == 0) return out;  // row() may be null on empty storage (UBSan)
  for (int i = 0; i < r; ++i) {
    std::memcpy(out.row(i), row(i0 + i) + j0, sizeof(double) * c);
  }
  return out;
}

void Matrix::set_block(int i0, int j0, const Matrix& b) {
  KHSS_REQUIRE(i0 >= 0 && j0 >= 0 && i0 + b.rows() <= rows_ &&
                   j0 + b.cols() <= cols_,
               "Matrix::set_block: block " << b.rows() << " x " << b.cols()
                   << " at (" << i0 << ", " << j0 << ") exceeds " << rows_
                   << " x " << cols_);
  if (b.cols() == 0) return;
  for (int i = 0; i < b.rows(); ++i) {
    std::memcpy(row(i0 + i) + j0, b.row(i), sizeof(double) * b.cols());
  }
}

void Matrix::add_block(int i0, int j0, const Matrix& b, double alpha) {
  KHSS_REQUIRE(i0 >= 0 && j0 >= 0 && i0 + b.rows() <= rows_ &&
                   j0 + b.cols() <= cols_,
               "Matrix::add_block: block " << b.rows() << " x " << b.cols()
                   << " at (" << i0 << ", " << j0 << ") exceeds " << rows_
                   << " x " << cols_);
  for (int i = 0; i < b.rows(); ++i) {
    double* dst = row(i0 + i) + j0;
    const double* src = b.row(i);
    for (int j = 0; j < b.cols(); ++j) dst[j] += alpha * src[j];
  }
}

Matrix Matrix::rows_subset(const std::vector<int>& idx) const {
  Matrix out(static_cast<int>(idx.size()), cols_);
  if (cols_ == 0) return out;
  for (std::size_t i = 0; i < idx.size(); ++i) {
    KHSS_REQUIRE(idx[i] >= 0 && idx[i] < rows_,
                 "Matrix::rows_subset: index " << idx[i] << " out of range [0, "
                     << rows_ << ")");
    std::memcpy(out.row(static_cast<int>(i)), row(idx[i]),
                sizeof(double) * cols_);
  }
  return out;
}

Matrix Matrix::cols_subset(const std::vector<int>& idx) const {
  // Validate once, outside the per-row gather loop.
  for (std::size_t j = 0; j < idx.size(); ++j) {
    KHSS_REQUIRE(idx[j] >= 0 && idx[j] < cols_,
                 "Matrix::cols_subset: index " << idx[j] << " out of range [0, "
                     << cols_ << ")");
  }
  Matrix out(rows_, static_cast<int>(idx.size()));
  for (int i = 0; i < rows_; ++i) {
    const double* src = row(i);
    double* dst = out.row(i);
    for (std::size_t j = 0; j < idx.size(); ++j) dst[j] = src[idx[j]];
  }
  return out;
}

Matrix Matrix::transposed() const {
  Matrix out(cols_, rows_);
  // Blocked transpose for cache friendliness on larger matrices; row blocks
  // write disjoint output columns, so the parallel split is safe and
  // order-free (pure copies, no accumulation).
  constexpr int kBlock = 32;
#pragma omp parallel for schedule(static) if (size() > 65536)
  for (int ib = 0; ib < rows_; ib += kBlock) {
    const int imax = ib + kBlock < rows_ ? ib + kBlock : rows_;
    for (int jb = 0; jb < cols_; jb += kBlock) {
      const int jmax = jb + kBlock < cols_ ? jb + kBlock : cols_;
      for (int i = ib; i < imax; ++i) {
        for (int j = jb; j < jmax; ++j) out(j, i) = (*this)(i, j);
      }
    }
  }
  return out;
}

void Matrix::scale(double alpha) {
  for (auto& v : data_) v *= alpha;
}

void Matrix::add(const Matrix& other, double alpha) {
  KHSS_REQUIRE(same_shape(other), "Matrix::add: shape mismatch, "
                                      << rows_ << " x " << cols_ << " vs "
                                      << other.rows() << " x " << other.cols());
  const double* src = other.data();
  double* dst = data();
  for (std::size_t i = 0; i < data_.size(); ++i) dst[i] += alpha * src[i];
}

void Matrix::shift_diagonal(double alpha) {
  const int n = rows_ < cols_ ? rows_ : cols_;
  for (int i = 0; i < n; ++i) (*this)(i, i) += alpha;
}

}  // namespace khss::la
