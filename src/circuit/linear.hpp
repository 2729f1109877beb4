#pragma once

#include <cstddef>
#include <vector>

/// \file linear.hpp
/// Dense linear algebra for the MNA solver.
///
/// Circuit matrices in this repo are small (a few hundred unknowns at most,
/// even for the 128-bitline charge-sharing array), so a dense LU with partial
/// pivoting is simpler and fast enough; the transient engine factors once per
/// Newton iteration.

namespace vrl::circuit {

/// Row-major dense matrix.
class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(std::size_t rows, std::size_t cols);

  double& At(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double At(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  /// Row-major storage: (r, c) is values()[r * cols() + c].
  std::vector<double>& values() { return data_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Solves A x = b in place via LU with partial pivoting.  A is overwritten
/// with its factorization; b is overwritten with the solution.
///
/// \throws vrl::NumericalError if A is singular (pivot below threshold) or
/// dimensions mismatch.
void SolveInPlace(DenseMatrix& a, std::vector<double>& b);

}  // namespace vrl::circuit
