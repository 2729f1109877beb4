#pragma once

#include <cstddef>
#include <span>
#include <vector>

/// \file tridiagonal.hpp
/// Thomas-algorithm solver for tridiagonal linear systems.
///
/// The paper's pre-sensing model (Eq. 8) couples each bitline's sense voltage
/// to its two neighbours through the bitline-to-bitline parasitic Cbb,
/// producing the system  K * Vsense = K1 * Lself  where K is tridiagonal with
/// unit diagonal and -K2 off-diagonals.  For N bitlines this solves in O(N)
/// instead of the O(N^3) dense inverse written in the paper.

namespace vrl {

/// A tridiagonal system  A x = d  with
///   A[i][i]   = diag[i]
///   A[i][i-1] = lower[i-1]
///   A[i][i+1] = upper[i]
/// lower and upper have size n-1; diag and rhs have size n.
struct TridiagonalSystem {
  std::vector<double> lower;
  std::vector<double> diag;
  std::vector<double> upper;
  std::vector<double> rhs;
};

/// Solves the system with the Thomas algorithm.
///
/// \throws vrl::NumericalError if the sizes are inconsistent or a pivot
/// underflows (the system is singular or not diagonally dominant enough).
std::vector<double> SolveTridiagonal(const TridiagonalSystem& system);

/// The Thomas-algorithm factorization of the paper's coupling matrix
/// (I - k2*T) of size n: unit diagonal and -k2 on both off-diagonals.  The
/// pivots and c' depend only on (k2, n), so a model factors once and each
/// solve is a forward and a back substitution.  Every step performs
/// exactly SolveTridiagonal's operations in its order (each division stays
/// a division), so the results are bit-identical to it.
class CouplingFactor {
 public:
  /// \throws vrl::NumericalError if a pivot underflows.
  CouplingFactor(double k2, std::size_t n);

  std::size_t size() const { return pivot_.size(); }

  /// Forward-sweep value d'[i] of row i from its right-hand side and
  /// d'[i-1] (`d_prev` is ignored for row 0).
  double ForwardStep(std::size_t i, double rhs_i, double d_prev) const {
    return i == 0 ? rhs_i / pivot_[0]
                  : (rhs_i - neg_k2_ * d_prev) / pivot_[i];
  }

  /// Back-substituted x[i] from d'[i] and x[i+1] (i < size() - 1).
  double BackStep(std::size_t i, double d_i, double x_next) const {
    return d_i - c_prime_[i] * x_next;
  }

  /// Solves (I - k2*T) x = rhs into `x`; both have size() entries and may
  /// be the same buffer.
  void Solve(std::span<const double> rhs, std::span<double> x) const;

 private:
  double neg_k2_;                ///< The off-diagonal entry, -k2.
  std::vector<double> pivot_;    ///< Elimination pivot of each row.
  std::vector<double> c_prime_;  ///< Normalized super-diagonal c'[i].
};

/// Convenience for the paper's Eq. 8: solves (I - K2*offdiag) v = k1 * lself,
/// i.e. a symmetric constant-coefficient tridiagonal system with unit
/// diagonal and -k2 on both off-diagonals.  Factors and substitutes once;
/// callers that solve repeatedly keep a CouplingFactor instead.
std::vector<double> SolveCouplingSystem(double k1, double k2,
                                        const std::vector<double>& lself);

}  // namespace vrl
