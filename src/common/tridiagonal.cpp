#include "common/tridiagonal.hpp"

#include <cmath>
#include <cstddef>

#include "common/error.hpp"

namespace vrl {

std::vector<double> SolveTridiagonal(const TridiagonalSystem& system) {
  const std::size_t n = system.diag.size();
  if (n == 0) {
    return {};
  }
  if (system.rhs.size() != n || system.lower.size() + 1 != n ||
      system.upper.size() + 1 != n) {
    throw NumericalError("SolveTridiagonal: inconsistent system dimensions");
  }

  std::vector<double> c_prime(n, 0.0);
  std::vector<double> d_prime(n, 0.0);

  double pivot = system.diag[0];
  if (std::abs(pivot) < 1e-300) {
    throw NumericalError("SolveTridiagonal: zero pivot at row 0");
  }
  if (n > 1) {
    c_prime[0] = system.upper[0] / pivot;
  }
  d_prime[0] = system.rhs[0] / pivot;

  for (std::size_t i = 1; i < n; ++i) {
    pivot = system.diag[i] - system.lower[i - 1] * c_prime[i - 1];
    if (std::abs(pivot) < 1e-300) {
      throw NumericalError("SolveTridiagonal: zero pivot during elimination");
    }
    if (i + 1 < n) {
      c_prime[i] = system.upper[i] / pivot;
    }
    d_prime[i] = (system.rhs[i] - system.lower[i - 1] * d_prime[i - 1]) / pivot;
  }

  std::vector<double> x(n);
  x[n - 1] = d_prime[n - 1];
  for (std::size_t i = n - 1; i-- > 0;) {
    x[i] = d_prime[i] - c_prime[i] * x[i + 1];
  }
  return x;
}

CouplingFactor::CouplingFactor(double k2, std::size_t n)
    : neg_k2_(-k2), pivot_(n, 0.0), c_prime_(n, 0.0) {
  if (n == 0) {
    return;
  }
  pivot_[0] = 1.0;
  if (n > 1) {
    c_prime_[0] = neg_k2_ / pivot_[0];
  }
  for (std::size_t i = 1; i < n; ++i) {
    pivot_[i] = 1.0 - neg_k2_ * c_prime_[i - 1];
    if (std::abs(pivot_[i]) < 1e-300) {
      throw NumericalError("CouplingFactor: zero pivot during elimination");
    }
    if (i + 1 < n) {
      c_prime_[i] = neg_k2_ / pivot_[i];
    }
  }
}

void CouplingFactor::Solve(std::span<const double> rhs,
                           std::span<double> x) const {
  const std::size_t n = size();
  if (rhs.size() != n || x.size() != n) {
    throw NumericalError("CouplingFactor: right-hand side size mismatch");
  }
  if (n == 0) {
    return;
  }
  // The carried value lives in a register: x may alias rhs.
  double carry = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    carry = ForwardStep(i, rhs[i], carry);
    x[i] = carry;
  }
  for (std::size_t i = n - 1; i-- > 0;) {
    carry = BackStep(i, x[i], carry);
    x[i] = carry;
  }
}

std::vector<double> SolveCouplingSystem(double k1, double k2,
                                        const std::vector<double>& lself) {
  const std::size_t n = lself.size();
  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = k1 * lself[i];
  }
  CouplingFactor(k2, n).Solve(x, x);
  return x;
}

}  // namespace vrl
