#include "circuit/linear.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace vrl::circuit {

DenseMatrix::DenseMatrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

void SolveInPlace(DenseMatrix& a, std::vector<double>& b) {
  const std::size_t n = a.rows();
  if (a.cols() != n || b.size() != n) {
    throw NumericalError("SolveInPlace: dimension mismatch");
  }

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivot: find the largest-magnitude entry in column k.
    std::size_t pivot_row = k;
    double pivot_mag = std::abs(a.At(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double mag = std::abs(a.At(r, k));
      if (mag > pivot_mag) {
        pivot_mag = mag;
        pivot_row = r;
      }
    }
    if (pivot_mag < 1e-300) {
      throw NumericalError("SolveInPlace: singular matrix");
    }
    if (pivot_row != k) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(a.At(k, c), a.At(pivot_row, c));
      }
      std::swap(b[k], b[pivot_row]);
    }

    const double inv_pivot = 1.0 / a.At(k, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double factor = a.At(r, k) * inv_pivot;
      if (factor == 0.0) {
        continue;
      }
      a.At(r, k) = 0.0;
      for (std::size_t c = k + 1; c < n; ++c) {
        a.At(r, c) -= factor * a.At(k, c);
      }
      b[r] -= factor * b[k];
    }
  }

  // Back substitution.
  for (std::size_t i = n; i-- > 0;) {
    double sum = b[i];
    for (std::size_t c = i + 1; c < n; ++c) {
      sum -= a.At(i, c) * b[c];
    }
    b[i] = sum / a.At(i, i);
  }
}

}  // namespace vrl::circuit
