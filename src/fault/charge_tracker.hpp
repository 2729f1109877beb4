#pragma once

#include <cstddef>
#include <vector>

#include "model/refresh_model.hpp"
#include "retention/leakage.hpp"

/// \file charge_tracker.hpp
/// Per-row charge replay against the physics.
///
/// One refresh operation applied to a leaking cell is the unit of truth the
/// whole safety story rests on: the cell decays per its runtime retention,
/// the sense amplifier either resolves the remaining charge or does not,
/// and the restore is capped by the consecutive-partial truncation
/// compounding.  The *online* failure monitor (fault::RunCampaign) senses
/// every granted op through it, and the *offline* schedule validator
/// (core::IntegrityChecker) is that monitor run with no faults, so both
/// share one tick loop and one implementation of the math.

namespace vrl::fault {

/// Tracks the charge state of every row of one bank through a sequence of
/// refresh operations.  Time is wall-clock seconds; callers feed events in
/// non-decreasing time order per row.
class ChargeTracker {
 public:
  /// Outcome of sensing + restoring one row.
  struct SenseResult {
    double fraction_before = 0.0;  ///< Charge at sensing time (post decay).
    double margin = 0.0;  ///< fraction_before - minimum readable fraction.
    bool sense_ok = false;
    double fraction_after = 0.0;  ///< Restored charge; valid when sense_ok.
  };

  ChargeTracker(const model::RefreshModel& model, std::size_t rows);

  /// Decays `row` to `now_s` under `retention_s`, senses it, and applies a
  /// refresh with the given τpost budget (restore capped per the
  /// consecutive-partial compounding).  On a failed sense the row's charge
  /// is left at the decayed level — the caller decides whether the data is
  /// recovered (Restore) or lost.
  SenseResult Refresh(std::size_t row, double now_s, double retention_s,
                      bool is_full, double tau_post_s);

  /// Resets a row to a freshly-written full level: the ECC write-back after
  /// a corrected failure, or the integrity checker's "count further
  /// failures distinctly" reset after data loss.
  void Restore(std::size_t row, double now_s);

  double fraction(std::size_t row) const;
  std::size_t consecutive_partials(std::size_t row) const;

  /// Lowest pre-refresh margin seen across all rows so far.
  double min_margin() const { return min_margin_; }
  std::size_t rows() const { return fraction_.size(); }

 private:
  void CheckRow(std::size_t row) const;

  const model::RefreshModel& model_;
  double readable_;  ///< MinReadableFraction(), a bisection: computed once.
  retention::LeakageModel leakage_;
  double min_margin_ = 1.0;
  std::vector<double> fraction_;
  std::vector<double> last_event_s_;
  std::vector<std::size_t> consecutive_partials_;
};

}  // namespace vrl::fault
