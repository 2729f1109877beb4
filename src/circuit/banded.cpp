#include "circuit/banded.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace vrl::circuit {

BandedMatrix::BandedMatrix(std::size_t n, std::size_t halfband)
    : n_(n),
      halfband_(halfband),
      data_(n * (2 * halfband + 1), 0.0),
      structural_(data_.size(), 0) {
  for (std::size_t r = 0; r < n_; ++r) {
    const std::size_t lo = r > halfband_ ? r - halfband_ : 0;
    const std::size_t hi = std::min(n_ - 1, r + halfband_);
    for (std::size_t c = lo; c <= hi; ++c) {
      structural_[Offset(r, c)] = 1;
    }
  }
  Plan();
}

BandedMatrix::BandedMatrix(std::size_t n, std::size_t halfband,
                           const std::vector<Entry>& pattern)
    : n_(n),
      halfband_(halfband),
      data_(n * (2 * halfband + 1), 0.0),
      structural_(data_.size(), 0) {
  for (const auto& [r, c] : pattern) {
    if (!InBand(r, c)) {
      throw NumericalError("BandedMatrix: pattern entry outside band");
    }
    structural_[Offset(r, c)] = 1;
  }
  Plan();
}

void BandedMatrix::Plan() {
  lower_start_.assign(n_ + 1, 0);
  upper_start_.assign(n_ + 1, 0);
  for (std::size_t k = 0; k < n_; ++k) {
    structural_[Offset(k, k)] = 1;
    const std::size_t end = std::min(n_ - 1, k + halfband_);
    // Every pivot before k has already added its fill to row and column k.
    for (std::size_t r = k + 1; r <= end; ++r) {
      if (structural_[Offset(r, k)] != 0) {
        lower_.push_back(r);
      }
    }
    for (std::size_t c = k + 1; c <= end; ++c) {
      if (structural_[Offset(k, c)] != 0) {
        upper_.push_back(c);
      }
    }
    lower_start_[k + 1] = lower_.size();
    upper_start_[k + 1] = upper_.size();
    for (std::size_t li = lower_start_[k]; li < lower_.size(); ++li) {
      for (std::size_t ui = upper_start_[k]; ui < upper_.size(); ++ui) {
        structural_[Offset(lower_[li], upper_[ui])] = 1;
      }
    }
  }
}

bool BandedMatrix::InBand(std::size_t r, std::size_t c) const {
  return r < n_ && c < n_ && (r > c ? r - c : c - r) <= halfband_;
}

std::size_t BandedMatrix::Slot(std::size_t r, std::size_t c) const {
  if (!InBand(r, c) || structural_[Offset(r, c)] == 0) {
    throw NumericalError("BandedMatrix: entry outside the structure");
  }
  return Offset(r, c);
}

double& BandedMatrix::At(std::size_t r, std::size_t c) {
  return data_[Slot(r, c)];
}

double BandedMatrix::At(std::size_t r, std::size_t c) const {
  if (!InBand(r, c)) {
    return 0.0;
  }
  return data_[Offset(r, c)];
}

void BandedMatrix::SolveInPlace(std::vector<double>& b) {
  if (b.size() != n_) {
    throw NumericalError("BandedMatrix::SolveInPlace: dimension mismatch");
  }
  double* const a = data_.data();
  // Row r's storage starts at r * width - r + halfband, so (r, c) sits at
  // that base + c.
  const std::size_t stride = 2 * halfband_;
  // LU elimination along the plan.
  for (std::size_t k = 0; k < n_; ++k) {
    const std::size_t k_base = k * stride + halfband_;
    const double pivot = a[k_base + k];
    if (std::abs(pivot) < 1e-300) {
      throw NumericalError("BandedMatrix::SolveInPlace: zero pivot");
    }
    const std::size_t* const cols = upper_.data() + upper_start_[k];
    const std::size_t col_count = upper_start_[k + 1] - upper_start_[k];
    for (std::size_t li = lower_start_[k]; li < lower_start_[k + 1]; ++li) {
      const std::size_t r = lower_[li];
      const std::size_t r_base = r * stride + halfband_;
      const double factor = a[r_base + k] / pivot;
      if (factor == 0.0) {
        continue;
      }
      a[r_base + k] = 0.0;
      for (std::size_t ci = 0; ci < col_count; ++ci) {
        a[r_base + cols[ci]] -= factor * a[k_base + cols[ci]];
      }
      b[r] -= factor * b[k];
    }
  }
  // Back substitution.
  for (std::size_t i = n_; i-- > 0;) {
    const std::size_t i_base = i * stride + halfband_;
    double sum = b[i];
    for (std::size_t ui = upper_start_[i]; ui < upper_start_[i + 1]; ++ui) {
      sum -= a[i_base + upper_[ui]] * b[upper_[ui]];
    }
    b[i] = sum / a[i_base + i];
  }
}

}  // namespace vrl::circuit
