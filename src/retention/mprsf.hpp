#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "common/units.hpp"
#include "model/refresh_model.hpp"
#include "retention/leakage.hpp"
#include "retention/profile.hpp"

/// \file mprsf.hpp
/// MPRSF — "mean partial refreshes to sensing failure" (§3 of the paper).
///
/// A row's MPRSF is the number of consecutive partial refreshes it can
/// reliably sustain between two full refreshes.  We compute it by iterating
/// the physics of the analytical model (RefreshModel::ApplyRefresh) against
/// the leakage model:
///
///   full refresh -> decay one period -> partial refresh -> decay -> ...
///
/// A schedule with m partials is sustainable when, repeated periodically,
/// every refresh (the m partials and the closing full) still senses the
/// cell correctly.  Partial refreshes restore less charge when the cell
/// enters weaker (the sensed swing shrinks, the latch resolves slower, less
/// of the τpost budget is left for restoration), so charge ratchets down
/// across consecutive partials — exactly the failure mode of Fig. 1b.

namespace vrl::retention {

class MprsfCalculator {
 public:
  /// \param model       the analytical refresh model (shared technology).
  /// \param tau_partial τpost budget of a partial refresh [s].
  MprsfCalculator(const model::RefreshModel& model, double tau_partial_s);

  /// Largest m <= max_partials such that the periodic schedule
  /// (full + m partials) at `period_s` is sustainable for a cell with the
  /// given retention time.  Returns 0 when even one partial fails.
  std::size_t ComputeMprsf(double retention_s, double period_s,
                           std::size_t max_partials) const;

  /// MPRSF for every row of a binned profile: each row is evaluated at its
  /// own bin refresh period and capped at `max_partials` (the counter width
  /// of the hardware implementation, 2^nbits - 1).
  ///
  /// Within one bin the period is fixed and MPRSF is non-decreasing in
  /// retention (docs/MODEL.md §5), so the rows are ordered by (bin,
  /// retention) and each bin is filled by FillNonDecreasingRuns: a few
  /// ComputeMprsf calls per distinct value instead of one per row.  A bin
  /// whose computed values break that ordering is recomputed row by row.
  /// `evaluations`, when given, receives the number of ComputeMprsf calls.
  std::vector<std::size_t> ComputeRowMprsf(
      const RetentionProfile& profile, const BinningResult& binning,
      std::size_t max_partials, std::size_t* evaluations = nullptr) const;

  /// Charge trajectory of one periodic schedule (for Fig. 1b): the cell's
  /// fraction sampled just before and just after each refresh, starting
  /// from a full refresh at t = 0.  `partials_between_fulls` selects the
  /// schedule; `periods` is the number of refresh periods simulated.
  struct TrajectoryPoint {
    double time_s = 0.0;
    double fraction = 0.0;
    bool is_refresh = false;   ///< Point right after a refresh operation.
    bool sense_ok = true;      ///< Refresh points: did sensing succeed?
    bool was_full = false;     ///< Refresh points: full (vs partial)?
  };
  std::vector<TrajectoryPoint> SimulateSchedule(
      double retention_s, double period_s, std::size_t partials_between_fulls,
      std::size_t periods) const;

  const LeakageModel& leakage() const { return leakage_; }
  double tau_partial_s() const { return tau_partial_s_; }

 private:
  /// Runs the periodic schedule until a failure or a steady state; returns
  /// true if sustainable.
  bool Sustainable(double retention_s, double period_s,
                   std::size_t partials) const;

  const model::RefreshModel& model_;
  double tau_partial_s_;
  double tau_full_s_;
  LeakageModel leakage_;
};

/// Sets out[i] = eval(i) for every i in [0, n), assuming eval is
/// non-decreasing in i.  Both ends are evaluated; a sub-range whose end
/// values are equal is filled outright, and one whose ends differ is
/// bisected, so a range holding k distinct values costs O(k log n) calls.
/// The assumption is checked on every value computed: if the ends are out
/// of order or a midpoint falls outside its sub-range's end values, the
/// whole range is recomputed one element at a time.
void FillNonDecreasingRuns(
    std::size_t n, const std::function<std::size_t(std::size_t)>& eval,
    std::size_t* out);

}  // namespace vrl::retention
