#include "model/refresh_model.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"

namespace vrl::model {

namespace {

/// Time for U(t) to decay to `settle`, by bisection over the slow constant.
double SettleTimeOfU(const PreSensingModel& pre, const TechnologyParams& tech,
                     double settle) {
  const double t_max = 60.0 * pre.Rpre() * tech.Cbl();
  if (pre.U(t_max) >= settle) {
    throw NumericalError("RefreshModel: pre-sensing never settles");
  }
  return BisectRoot(0.0, t_max, 1e-15,
                    [&](double t) { return pre.U(t) - settle; });
}

}  // namespace

RefreshModel::RefreshModel(const TechnologyParams& tech)
    : RefreshModel(tech, Spec{}) {}

RefreshModel::RefreshModel(const TechnologyParams& tech, const Spec& spec)
    : tech_(tech), spec_(spec), eq_(tech), pre_(tech), post_(tech) {
  if (spec_.start_fraction <= 0.5 || spec_.start_fraction >= 1.0) {
    throw ConfigError(
        "RefreshModel: start_fraction must be in (0.5, 1) — below 50% the "
        "cell is unreadable, at 1.0 there is nothing to restore");
  }
  if (spec_.partial_target <= spec_.start_fraction ||
      spec_.full_target <= spec_.partial_target || spec_.full_target >= 1.0) {
    throw ConfigError(
        "RefreshModel: need start < partial_target < full_target < 1");
  }
  if (spec_.presense_settle <= 0.0 || spec_.presense_settle >= 1.0) {
    throw ConfigError("RefreshModel: presense_settle must be in (0, 1)");
  }
  tau_pre_s_ = WordlineDelaySeconds() +
               SettleTimeOfU(pre_, tech_, spec_.presense_settle);
  developed_ = 1.0 - pre_.U(tau_pre_s_);
}

Cycles RefreshModel::ToCycles(double seconds) const {
  // A refresh phase always occupies at least one cycle of the command
  // timeline.
  return std::max<Cycles>(1,
                          SecondsToCyclesCeil(seconds, tech_.clock_period_s));
}

double RefreshModel::TauEqSeconds() const { return eq_.EqualizationDelay(); }

double RefreshModel::WordlineDelaySeconds() const {
  return tech_.wl_delay_per_column_s * static_cast<double>(tech_.columns);
}

double RefreshModel::MinReadableFraction() const {
  // dv(fraction) is monotone in fraction; find where it crosses the SA
  // margin.  Below ~Veq/Vdd the cell is unreadable by construction.
  const double lo = 0.5 + 1e-6;
  const double hi = 1.0;
  if (SensingDeltaV(hi) <= tech_.v_sense_min) {
    throw NumericalError(
        "RefreshModel: even a full cell does not clear the sense margin");
  }
  if (SensingDeltaV(lo) >= tech_.v_sense_min) {
    return lo;
  }
  return BisectRoot(lo, hi, 1e-9, [&](double f) {
    return SensingDeltaV(f) - tech_.v_sense_min;
  });
}

double RefreshModel::SensingDeltaV(double fraction) const {
  // Signed, tracked-cell quantity: negative means the cell would already be
  // sensed as the opposite value.  The developed magnitude scales by
  // (1 - U(τpre)) as in PreSensingModel::DevelopedVoltage; the sign is
  // preserved.
  const double vsense = pre_.WorstTrackedSenseVoltage(fraction);
  const double developed = std::abs(vsense) * developed_;
  return vsense >= 0.0 ? developed : -developed;
}

double RefreshModel::TauPostSeconds(double target_fraction) const {
  const double dv = SensingDeltaV(spec_.start_fraction);
  // After charge sharing the cell has equilibrated with its bitline at
  // Veq + dv; restoration starts from there (Eq. 12's Vs(τpre)).
  const double v_start = tech_.Veq() + dv;
  const double v_target = target_fraction * tech_.vdd;
  return post_.TimeToRestore(v_start, dv, v_target);
}

TimingBreakdown RefreshModel::Timings(double target_fraction) const {
  TimingBreakdown t;
  t.tau_eq_s = TauEqSeconds();
  t.tau_pre_s = TauPreSeconds();
  t.tau_post_s = TauPostSeconds(target_fraction);
  t.tau_fixed_s = tech_.tau_fixed_s;
  t.tau_eq = ToCycles(t.tau_eq_s);
  t.tau_pre = ToCycles(t.tau_pre_s);
  t.tau_post = ToCycles(t.tau_post_s);
  t.tau_fixed = ToCycles(t.tau_fixed_s);
  return t;
}

TimingBreakdown RefreshModel::FullRefreshTimings() const {
  return Timings(spec_.full_target);
}

TimingBreakdown RefreshModel::PartialRefreshTimings() const {
  return Timings(spec_.partial_target);
}

RefreshOutcome RefreshModel::ApplyRefresh(double fraction_before,
                                          double tau_post_s,
                                          double restore_cap) const {
  RefreshOutcome out;
  const double dv = SensingDeltaV(std::clamp(fraction_before, 0.0, 1.0));
  out.dv_bl = dv;
  out.sense_ok = dv >= tech_.v_sense_min;
  if (!out.sense_ok) {
    // The sense amplifier cannot resolve the cell: data is lost.  The cell
    // ends up at whatever the (possibly wrong) restore drives it to; for
    // accounting we simply report the unreadable state.
    out.fraction_after = fraction_before;
    return out;
  }
  const double v_start = tech_.Veq() + dv;
  const double v_after = post_.RestoredVoltage(v_start, dv, tau_post_s);
  out.fraction_after = std::min(v_after / tech_.vdd, restore_cap);
  return out;
}

RefreshOutcome RefreshModel::ApplyRefresh(double fraction_before,
                                          const TimingBreakdown& timings,
                                          double restore_cap) const {
  return ApplyRefresh(fraction_before, timings.tau_post_s, restore_cap);
}

double RefreshModel::PartialRestoreCap(
    std::size_t consecutive_partial_index) const {
  if (consecutive_partial_index == 0) {
    return 1.0;  // no partials since the last full refresh
  }
  const double deficit =
      (1.0 - spec_.partial_target) *
      std::pow(spec_.partial_deficit_compounding,
               static_cast<double>(consecutive_partial_index - 1));
  return std::max(0.0, 1.0 - deficit);
}

PiecewiseLinear RefreshModel::RestoreCurve(int samples) const {
  if (samples < 2) {
    throw ConfigError("RefreshModel::RestoreCurve: need at least 2 samples");
  }
  const TimingBreakdown full = FullRefreshTimings();
  const double trfc = full.trfc_s();
  const double dv = SensingDeltaV(spec_.start_fraction);
  const double v_start = tech_.Veq() + dv;
  const double v_end = post_.RestoredVoltage(v_start, dv, full.tau_post_s);

  // Post-sensing restoration occupies the tail of the refresh: the fixed
  // delays (command decode, wordline assert) and the eq/pre phases all
  // precede it, so the restore window is
  // [τeq + τpre + τfixed, tRFC].  We normalize progress to [0, 1].
  const double t_post_begin =
      full.tau_eq_s + full.tau_pre_s + full.tau_fixed_s;
  std::vector<double> xs(static_cast<std::size_t>(samples));
  std::vector<double> ys(static_cast<std::size_t>(samples));
  for (int i = 0; i < samples; ++i) {
    const double t = trfc * static_cast<double>(i) /
                     static_cast<double>(samples - 1);
    double v = v_start;
    if (t > t_post_begin) {
      v = post_.RestoredVoltage(v_start, dv, t - t_post_begin);
    }
    xs[static_cast<std::size_t>(i)] = t / trfc;
    ys[static_cast<std::size_t>(i)] =
        (v - v_start) / std::max(1e-12, v_end - v_start);
  }
  return PiecewiseLinear(std::move(xs), std::move(ys));
}

Cycles RefreshModel::MinPreSensingCycles(double target_fraction,
                                         Cycles tau_post_budget) const {
  if (target_fraction <= spec_.start_fraction || target_fraction >= 1.0) {
    throw ConfigError(
        "MinPreSensingCycles: target must be in (start_fraction, 1)");
  }
  // Charge sharing must settle to within a small fraction of the allowed
  // restore deficit before the developed signal is trustworthy.
  const double settle =
      (1.0 - target_fraction) * spec_.guarantee_settle_scale;
  const double t_settle = SettleTimeOfU(pre_, tech_, settle);
  const double tau_pre_s = WordlineDelaySeconds() + t_settle;

  // Feasibility: with that settled signal, the restore target must be
  // reachable within the τpost budget.
  const double vsense =
      pre_.WorstTrackedSenseVoltage(spec_.start_fraction);
  const double dv = pre_.DevelopedVoltage(vsense, t_settle);
  if (dv < tech_.v_sense_min) {
    throw NumericalError(
        "MinPreSensingCycles: worst-pattern signal below the sense margin");
  }
  const double budget_s =
      CyclesToSeconds(tau_post_budget, tech_.clock_period_s);
  const double v_after =
      post_.RestoredVoltage(tech_.Veq() + dv, dv, budget_s);
  if (v_after < target_fraction * tech_.vdd) {
    throw NumericalError(
        "MinPreSensingCycles: restore target infeasible within the τpost "
        "budget even with settled pre-sensing");
  }
  return ToCycles(tau_pre_s);
}

}  // namespace vrl::model
