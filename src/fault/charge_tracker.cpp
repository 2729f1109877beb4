#include "fault/charge_tracker.hpp"

#include <algorithm>
#include <string>

#include "common/error.hpp"

namespace vrl::fault {

ChargeTracker::ChargeTracker(const model::RefreshModel& model,
                             std::size_t rows)
    : model_(model),
      readable_(model.MinReadableFraction()),
      leakage_(model.spec().full_target, readable_),
      fraction_(rows, model.spec().full_target),
      last_event_s_(rows, 0.0),
      consecutive_partials_(rows, 0) {
  if (rows == 0) {
    throw ConfigError("ChargeTracker: need at least one row");
  }
}

void ChargeTracker::CheckRow(std::size_t row) const {
  if (row >= fraction_.size()) {
    throw ConfigError("ChargeTracker: row " + std::to_string(row) +
                      " out of range");
  }
}

ChargeTracker::SenseResult ChargeTracker::Refresh(std::size_t row,
                                                  double now_s,
                                                  double retention_s,
                                                  bool is_full,
                                                  double tau_post_s) {
  CheckRow(row);
  if (retention_s <= 0.0) {
    throw ConfigError("ChargeTracker: retention must be positive");
  }
  if (now_s < last_event_s_[row]) {
    throw ConfigError("ChargeTracker: events must be in time order per row");
  }

  fraction_[row] = leakage_.FractionAfter(
      fraction_[row], now_s - last_event_s_[row], retention_s);
  last_event_s_[row] = now_s;

  SenseResult result;
  result.fraction_before = fraction_[row];
  result.margin = fraction_[row] - readable_;
  min_margin_ = std::min(min_margin_, result.margin);

  const double cap =
      is_full ? 1.0
              : model_.PartialRestoreCap(consecutive_partials_[row] + 1);
  const auto outcome = model_.ApplyRefresh(fraction_[row], tau_post_s, cap);
  result.sense_ok = outcome.sense_ok;
  if (outcome.sense_ok) {
    fraction_[row] = outcome.fraction_after;
    result.fraction_after = outcome.fraction_after;
    consecutive_partials_[row] = is_full ? 0 : consecutive_partials_[row] + 1;
  }
  return result;
}

void ChargeTracker::Restore(std::size_t row, double now_s) {
  CheckRow(row);
  fraction_[row] = model_.spec().full_target;
  last_event_s_[row] = now_s;
  consecutive_partials_[row] = 0;
}

double ChargeTracker::fraction(std::size_t row) const {
  CheckRow(row);
  return fraction_[row];
}

std::size_t ChargeTracker::consecutive_partials(std::size_t row) const {
  CheckRow(row);
  return consecutive_partials_[row];
}

}  // namespace vrl::fault
