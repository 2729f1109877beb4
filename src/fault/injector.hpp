#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "retention/temperature.hpp"
#include "retention/vrt.hpp"

/// \file injector.hpp
/// Runtime fault injection.
///
/// The retention module models hazards statically (worst-case VRT profiles,
/// temperature derating factors); this module injects them *while the
/// controller runs*, driven by the simulation clock.  Each injector owns one
/// component of the shared FaultState so composed injectors never clobber
/// each other; the campaign loop multiplies the components into an
/// effective per-row retention scale every tick.
///
/// Implemented injectors (AVATAR, Qureshi et al. DSN 2015, names the first
/// two as the dominant runtime hazards for profile-based refresh):
///  * VrtFlipInjector           — per-row random telegraph noise: VRT rows
///                                flip between profiled and low retention.
///  * TemperatureExcursionInjector — a transient hot window scaling every
///                                row via retention::TemperatureModel.
///  * RetentionDriftInjector    — gradual bank-wide retention decline
///                                (aging / voltage droop).
///  * ProfileCorruptionInjector — rows whose profiled retention overstates
///                                the truth from a point in time onward
///                                (stale or corrupted profiling data).

namespace vrl::fault {

/// Mutable runtime condition of one bank, written by injectors and read by
/// the campaign loop.  Effective runtime retention of row r is
///   profiled_retention(r) * RowScale(r).
class FaultState {
 public:
  explicit FaultState(std::size_t rows);

  std::size_t rows() const { return vrt_scale_.size(); }

  /// Product of all fault components for one row.
  double RowScale(std::size_t row) const;

  // Component accessors — one injector type writes each.
  std::vector<double>& vrt_scale() { return vrt_scale_; }
  std::vector<double>& corruption_scale() { return corruption_scale_; }
  void set_temperature_scale(double scale);
  void set_drift_scale(double scale);
  double temperature_scale() const { return temperature_scale_; }
  double drift_scale() const { return drift_scale_; }

 private:
  std::vector<double> vrt_scale_;         ///< 1.0 or VrtParams::low_ratio.
  std::vector<double> corruption_scale_;  ///< <= 1.0, sticky once applied.
  double temperature_scale_ = 1.0;
  double drift_scale_ = 1.0;
};

/// A source of runtime faults, advanced by the campaign clock.
class FaultInjector {
 public:
  virtual ~FaultInjector() = default;

  /// Advances the injector to `now_s` (non-decreasing across calls) and
  /// applies its effect to `state`.  Stochastic injectors draw from `rng`,
  /// so a fixed schedule seed reproduces the fault trace bit-identically.
  virtual void Advance(double now_s, FaultState& state, Rng& rng) = 0;

  virtual std::string Name() const = 0;
};

/// Random telegraph noise at row granularity: each VRT row dwells in its
/// high (profiled) or low (low_ratio x profiled) retention state for
/// exponentially-distributed times, with stationary P(low) =
/// VrtParams::low_state_prob and mean low-state dwell
/// VrtParams::mean_dwell_s.
class VrtFlipInjector : public FaultInjector {
 public:
  explicit VrtFlipInjector(const retention::VrtParams& params);

  void Advance(double now_s, FaultState& state, Rng& rng) override;
  std::string Name() const override { return "vrt-flips"; }

  /// VRT row flags; empty until the first Advance samples them.
  const std::vector<bool>& vrt_rows() const { return vrt_rows_; }

 private:
  retention::VrtParams params_;
  std::vector<bool> vrt_rows_;
  std::vector<std::size_t> vrt_index_;  ///< VRT rows, ascending.
  std::vector<std::uint8_t> in_low_;  ///< 1 while the row is in low state.
  double last_now_s_ = 0.0;
  bool initialized_ = false;
};

/// A transient temperature excursion: retention of every row is scaled by
/// TemperatureModel::RetentionScale(peak_celsius) during the window and
/// returns to 1.0 outside it.  The peak must lie above the model's
/// profiling temperature (a hot window shortens retention); anything else
/// is a ConfigError.
class TemperatureExcursionInjector : public FaultInjector {
 public:
  TemperatureExcursionInjector(const retention::TemperatureModel& model,
                               double start_s, double duration_s,
                               double peak_celsius);

  void Advance(double now_s, FaultState& state, Rng& rng) override;
  std::string Name() const override { return "temperature-excursion"; }

 private:
  retention::TemperatureModel model_;
  double start_s_;
  double duration_s_;
  double scale_;
};

/// Gradual bank-wide retention decline: scale(t) = max(floor_scale,
/// 1 - rate_per_s * t).  Models slow aging or supply droop accumulating
/// over a run.
class RetentionDriftInjector : public FaultInjector {
 public:
  RetentionDriftInjector(double rate_per_s, double floor_scale);

  void Advance(double now_s, FaultState& state, Rng& rng) override;
  std::string Name() const override { return "retention-drift"; }

 private:
  double rate_per_s_;
  double floor_scale_;
};

/// Profile corruption: at `at_s`, each row independently (probability
/// `row_fraction`) turns out to retain only `true_ratio` of what the
/// profile claims, permanently — stale profiling data discovered the hard
/// way.
class ProfileCorruptionInjector : public FaultInjector {
 public:
  ProfileCorruptionInjector(double row_fraction, double true_ratio,
                            double at_s = 0.0);

  void Advance(double now_s, FaultState& state, Rng& rng) override;
  std::string Name() const override { return "profile-corruption"; }

 private:
  double row_fraction_;
  double true_ratio_;
  double at_s_;
  bool fired_ = false;
};

/// A composed set of injectors advanced together by the campaign clock.
/// Owns the fault RNG and the FaultState (sized at the first Advance).
class FaultSchedule {
 public:
  explicit FaultSchedule(std::uint64_t seed = 0x5EEDFA17ULL);

  FaultSchedule& Add(std::unique_ptr<FaultInjector> injector);

  /// Advances every injector to `now_s` for a bank of `rows` rows.  `now_s`
  /// must be non-decreasing and `rows` stable across calls.
  /// \throws vrl::ConfigError otherwise.
  void Advance(double now_s, std::size_t rows);

  /// Effective retention scale of one row; 1.0 before the first Advance.
  double RowScale(std::size_t row) const;

  /// State after the last Advance.  \throws vrl::ConfigError before it.
  const FaultState& state() const;

  std::size_t injector_count() const { return injectors_.size(); }

  /// Comma-joined injector names, for reports.
  std::string Describe() const;

 private:
  Rng rng_;
  std::vector<std::unique_ptr<FaultInjector>> injectors_;
  std::unique_ptr<FaultState> state_;
  double last_now_s_ = 0.0;
};

}  // namespace vrl::fault
