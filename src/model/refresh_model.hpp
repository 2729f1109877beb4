#pragma once

#include "common/interpolation.hpp"
#include "common/technology.hpp"
#include "common/units.hpp"
#include "model/equalization.hpp"
#include "model/postsensing.hpp"
#include "model/presensing.hpp"

/// \file refresh_model.hpp
/// The paper's complete analytical refresh model (Eq. 13):
///
///   tRFC = τeq + τpre + τpost + τfixed
///
/// composed from the §2.1–§2.3 submodels, plus the two derived quantities
/// the VRL-DRAM mechanism needs:
///
///  * the latency of full and partial refresh operations, quantized to
///    memory cycles (the §3.1 τ_full / τ_partial breakdown), and
///  * the physics of a single refresh applied to a partially-charged cell
///    (ApplyRefresh), which the retention module iterates to compute MPRSF.

namespace vrl::model {

/// Cycle-quantized decomposition of one refresh operation.
struct TimingBreakdown {
  double tau_eq_s = 0.0;
  double tau_pre_s = 0.0;
  double tau_post_s = 0.0;
  double tau_fixed_s = 0.0;

  Cycles tau_eq = 0;
  Cycles tau_pre = 0;
  Cycles tau_post = 0;
  Cycles tau_fixed = 0;

  Cycles trfc() const { return tau_eq + tau_pre + tau_post + tau_fixed; }
  double trfc_s() const {
    return tau_eq_s + tau_pre_s + tau_post_s + tau_fixed_s;
  }
};

/// Result of applying one refresh operation to a cell.
struct RefreshOutcome {
  double fraction_after = 0.0;  ///< Cell charge fraction after the refresh.
  double dv_bl = 0.0;           ///< Developed bitline difference sensed [V].
  bool sense_ok = false;        ///< True if dv_bl cleared the SA margin.
};

class RefreshModel {
 public:
  /// Targets and criteria used to turn the continuous model into concrete
  /// refresh latencies.
  struct Spec {
    /// Cell charge fraction a refresh must be specified for (the weakest
    /// cell still safely readable; see MinReadableFraction()).
    double start_fraction = 0.65;
    /// Restore target of a full refresh (asymptotically "fully charged";
    /// this deep target is what makes the last few percent of charge
    /// dominate τpost, the paper's Observation 1).
    double full_target = 0.9995;
    /// Restore target of a partial refresh (the paper truncates at 95%).
    double partial_target = 0.95;
    /// Operational pre-sensing is complete when U(τpre) decays to this.
    double presense_settle = 0.06;
    /// Guarantee-mode settle scale for MinPreSensingCycles: charge sharing
    /// must settle to (1 - target) * this before the allowed restore
    /// deficit is trustworthy across patterns and corners.
    double guarantee_settle_scale = 0.05;
    /// Restore-truncation compounding: the k-th *consecutive* partial
    /// refresh can restore the cell to at most
    ///   1 - (1 - partial_target) * compounding^(k-1).
    /// A truncated restore leaves the cell storing less charge, which
    /// weakens the next truncated restore super-linearly (the paper's
    /// Fig. 1b shows successive partial peaks at ~95% then ~67%; see also
    /// Zhang et al., "Restore Truncation", HPCA 2016).  4.2 reproduces the
    /// Fig. 4 savings.  A full refresh resets the compounding.
    double partial_deficit_compounding = 4.2;
  };

  /// \throws vrl::ConfigError on an inconsistent spec, and
  /// vrl::NumericalError if U(t) never decays to spec.presense_settle.
  explicit RefreshModel(const TechnologyParams& tech);
  RefreshModel(const TechnologyParams& tech, const Spec& spec);

  const TechnologyParams& tech() const { return tech_; }
  const Spec& spec() const { return spec_; }
  const EqualizationModel& equalization() const { return eq_; }
  const PreSensingModel& presensing() const { return pre_; }
  const PostSensingModel& postsensing() const { return post_; }

  // -- Phase delays -----------------------------------------------------------

  /// τeq [s]: both bitlines settled to Veq.
  double TauEqSeconds() const;

  /// τpre [s]: wordline propagation across the row plus the time for U(t)
  /// to decay to spec.presense_settle.  Computed once at construction.
  double TauPreSeconds() const { return tau_pre_s_; }

  /// Wordline propagation delay across tech.columns [s].
  double WordlineDelaySeconds() const;

  /// The lowest cell charge fraction the sense amplifier can still resolve
  /// (worst data pattern), i.e. where the developed difference equals
  /// tech.v_sense_min.  Retention time is defined as decay from
  /// spec.full_target to this level.
  double MinReadableFraction() const;

  /// Worst-pattern developed bitline difference at the end of pre-sensing,
  /// for a cell at `fraction` of full charge [V].
  double SensingDeltaV(double fraction) const;

  /// τpost [s] needed to restore the spec start-fraction cell to
  /// `target_fraction` (includes the t1+t2+t3 sensing delay).
  double TauPostSeconds(double target_fraction) const;

  // -- Refresh latencies ------------------------------------------------------

  /// Full breakdown for an arbitrary restore target.
  TimingBreakdown Timings(double target_fraction) const;

  /// τ_full: restore to spec.full_target (19 cycles in the paper's setup).
  TimingBreakdown FullRefreshTimings() const;

  /// τ_partial: restore to spec.partial_target (11 cycles in the paper).
  TimingBreakdown PartialRefreshTimings() const;

  // -- Refresh physics for MPRSF ----------------------------------------------

  /// Applies one refresh with a τpost budget of `tau_post_s` seconds to a
  /// cell currently at `fraction_before` of full charge, under worst-case
  /// data pattern.  Models the charge sharing (the cell equilibrates with
  /// the bitline) followed by the Eq. 12 restore tail.  The restored level
  /// is additionally capped at `restore_cap` (fraction of full charge) —
  /// pass 1.0 for a full refresh, PartialRestoreCap(k) for the k-th
  /// consecutive partial refresh.
  RefreshOutcome ApplyRefresh(double fraction_before, double tau_post_s,
                              double restore_cap = 1.0) const;

  /// Convenience: ApplyRefresh with the τpost budget implied by a
  /// TimingBreakdown (its un-quantized τpost seconds).
  RefreshOutcome ApplyRefresh(double fraction_before,
                              const TimingBreakdown& timings,
                              double restore_cap = 1.0) const;

  /// Maximum restorable charge fraction of the k-th consecutive partial
  /// refresh since the last full refresh (k >= 1); see
  /// Spec::partial_deficit_compounding.  Floored at zero.
  double PartialRestoreCap(std::size_t consecutive_partial_index) const;

  // -- Figure/table generators -------------------------------------------------

  /// Fig. 1a: normalized restoration progress (0..1) of the spec worst-case
  /// cell versus fraction of the full-refresh tRFC (0..1).
  PiecewiseLinear RestoreCurve(int samples = 200) const;

  /// Table 1 criterion: the pre-sensing time, in cycles, needed to
  /// *guarantee* the refreshed cell reaches `target_fraction` of its
  /// capacity.  This is the wordline propagation delay plus the time for
  /// charge sharing to settle to within guarantee_settle_scale of the
  /// allowed restore deficit (so the sensed signal — and therefore the
  /// restore margin — is trustworthy across data patterns), checked for
  /// feasibility against a τpost budget of `tau_post_budget` cycles.
  ///
  /// \throws vrl::NumericalError if the restore target is infeasible even
  /// with fully settled pre-sensing.
  Cycles MinPreSensingCycles(double target_fraction,
                             Cycles tau_post_budget) const;

 private:
  Cycles ToCycles(double seconds) const;

  TechnologyParams tech_;
  Spec spec_;
  EqualizationModel eq_;
  PreSensingModel pre_;
  PostSensingModel post_;
  double tau_pre_s_ = 0.0;  ///< TauPreSeconds().
  double developed_ = 0.0;  ///< 1 - U(τpre): developed share of Vsense.
};

}  // namespace vrl::model
