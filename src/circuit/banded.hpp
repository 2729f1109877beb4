#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

/// \file banded.hpp
/// Banded matrix storage + LU solve (no pivoting) along a planned structure.
///
/// The charge-sharing bitline array couples node i only to nodes within a
/// small index distance (its own cell, and the two neighbouring bitlines via
/// Cbb), so with a natural node ordering its MNA matrix is banded.  Inside
/// the band most entries are still structural zeros.  A BandedMatrix built
/// from a structural pattern plans its elimination once: for each pivot k,
/// the rows below it with a structural multiplier and the columns right of
/// it with a structural U entry, fill included.  A solve then costs
/// O(sum over k of |rows(k)| * |cols(k)|) instead of O(n * b^2); a matrix
/// built without a pattern plans the full band and pays exactly that.
///
/// The planned elimination performs the full-band elimination's IEEE
/// operations in the same order, minus the ones whose multiplier or U entry
/// is a structural zero: those would subtract a signed zero from a value
/// that is never -0.0, so skipping them leaves every bit of the factors and
/// the solution unchanged (for finite multipliers).
///
/// No pivoting: callers must only use this for diagonally dominant systems
/// (the transient engine checks structure, and capacitor companion
/// conductances C/dt dominate the diagonal at the timestep sizes we use).

namespace vrl::circuit {

/// Square banded matrix with half-bandwidth `halfband` (entries with
/// |r - c| > halfband are zero) and a structure inside that band.
class BandedMatrix {
 public:
  /// One structural (row, column) entry.
  using Entry = std::pair<std::size_t, std::size_t>;

  /// Every entry of the band is structural.
  BandedMatrix(std::size_t n, std::size_t halfband);

  /// The structure is `pattern`, the diagonal, and the fill their
  /// elimination creates.  \throws vrl::NumericalError for an entry outside
  /// the band.
  BandedMatrix(std::size_t n, std::size_t halfband,
               const std::vector<Entry>& pattern);

  /// Writable access to a structural entry.
  /// \throws vrl::NumericalError outside the structure.
  double& At(std::size_t r, std::size_t c);
  /// Read access; zero outside the band.
  double At(std::size_t r, std::size_t c) const;

  bool InBand(std::size_t r, std::size_t c) const;

  /// Index of a structural entry in values().
  /// \throws vrl::NumericalError outside the structure.
  std::size_t Slot(std::size_t r, std::size_t c) const;

  /// Band storage, row-major: row r holds columns [r-halfband, r+halfband].
  std::vector<double>& values() { return data_; }
  const std::vector<double>& values() const { return data_; }

  std::size_t size() const { return n_; }
  std::size_t halfband() const { return halfband_; }

  /// Solves A x = b in place (A overwritten by LU, b by the solution),
  /// without pivoting.
  ///
  /// \throws vrl::NumericalError on a near-zero pivot.
  void SolveInPlace(std::vector<double>& b);

 private:
  std::size_t Offset(std::size_t r, std::size_t c) const {
    // data_[r * width + (c - r + halfband)], width = 2 * halfband + 1.
    return r * (2 * halfband_ + 1) + (c + halfband_ - r);
  }

  /// Marks the diagonal structural, adds fill and builds the plan.
  void Plan();

  std::size_t n_ = 0;
  std::size_t halfband_ = 0;
  std::vector<double> data_;
  std::vector<std::uint8_t> structural_;  // per storage slot
  // Elimination plan by pivot k, as index ranges [start[k], start[k + 1]):
  // lower_ lists the rows r > k with a structural (r, k), upper_ the
  // columns c > k with a structural (k, c), both ascending.
  std::vector<std::size_t> lower_start_;
  std::vector<std::size_t> lower_;
  std::vector<std::size_t> upper_start_;
  std::vector<std::size_t> upper_;
};

}  // namespace vrl::circuit
