#include "fault/injector.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <limits>
#include <string>

#include "common/error.hpp"

namespace vrl::fault {

// ---------------------------------------------------------------------------
// FaultState
// ---------------------------------------------------------------------------

FaultState::FaultState(std::size_t rows)
    : vrt_scale_(rows, 1.0), corruption_scale_(rows, 1.0) {
  if (rows == 0) {
    throw ConfigError("FaultState: need at least one row");
  }
}

double FaultState::RowScale(std::size_t row) const {
  if (row >= vrt_scale_.size()) {
    throw ConfigError("FaultState: row out of range");
  }
  return vrt_scale_[row] * corruption_scale_[row] * temperature_scale_ *
         drift_scale_;
}

void FaultState::CheckRow(std::size_t row) const {
  if (row >= vrt_scale_.size()) {
    throw ConfigError("FaultState: row out of range");
  }
}

void FaultState::Write(double& slot, double value, FaultComponent component,
                       std::size_t row) {
  if (slot == value) {
    return;
  }
  slot = value;
  if (log_ != nullptr) {
    log_->push_back(
        {log_tick_, component, static_cast<std::uint32_t>(row), value});
  }
}

void FaultState::set_vrt_scale(std::size_t row, double scale) {
  CheckRow(row);
  Write(vrt_scale_[row], scale, FaultComponent::kVrt, row);
}

void FaultState::set_corruption_scale(std::size_t row, double scale) {
  CheckRow(row);
  Write(corruption_scale_[row], scale, FaultComponent::kCorruption, row);
}

void FaultState::set_temperature_scale(double scale) {
  if (scale <= 0.0) {
    throw ConfigError("FaultState: temperature scale must be positive");
  }
  Write(temperature_scale_, scale, FaultComponent::kTemperature, 0);
}

void FaultState::set_drift_scale(double scale) {
  if (scale <= 0.0) {
    throw ConfigError("FaultState: drift scale must be positive");
  }
  Write(drift_scale_, scale, FaultComponent::kDrift, 0);
}

void FaultState::Apply(const FaultWrite& write) {
  switch (write.component) {
    case FaultComponent::kVrt:
      set_vrt_scale(write.row, write.value);
      break;
    case FaultComponent::kCorruption:
      set_corruption_scale(write.row, write.value);
      break;
    case FaultComponent::kTemperature:
      set_temperature_scale(write.value);
      break;
    case FaultComponent::kDrift:
      set_drift_scale(write.value);
      break;
  }
}

// ---------------------------------------------------------------------------
// VrtFlipInjector
// ---------------------------------------------------------------------------

VrtFlipInjector::VrtFlipInjector(const retention::VrtParams& params)
    : params_(params) {
  params_.Validate();
}

void VrtFlipInjector::Advance(double now_s, FaultState& state, Rng& rng) {
  const std::size_t rows = state.rows();
  if (!initialized_) {
    vrt_rows_ = retention::SampleVrtRows(params_, rows, rng);
    in_low_.assign(rows, 0);
    for (std::size_t r = 0; r < rows; ++r) {
      if (vrt_rows_[r]) {
        vrt_index_.push_back(r);
        in_low_[r] = rng.Bernoulli(params_.low_state_prob);
        state.set_vrt_scale(r, in_low_[r] ? params_.low_ratio : 1.0);
      }
    }
    initialized_ = true;
    last_now_s_ = now_s;
    return;
  }
  if (vrt_rows_.size() != rows) {
    throw ConfigError("VrtFlipInjector: row count changed between advances");
  }

  const double dt = now_s - last_now_s_;
  last_now_s_ = now_s;
  if (dt <= 0.0) {
    return;
  }
  // Two-state Markov dwell times chosen so the stationary low-state
  // probability equals low_state_prob and the mean low dwell is
  // mean_dwell_s.  Degenerate probabilities pin the state.
  const double p = params_.low_state_prob;
  const double d_low = params_.mean_dwell_s;
  const double p_leave_low = p >= 1.0 ? 0.0 : -std::expm1(-dt / d_low);
  double p_enter_low = 1.0;
  if (p <= 0.0) {
    p_enter_low = 0.0;
  } else if (p < 1.0) {
    const double d_high = d_low * (1.0 - p) / p;
    p_enter_low = -std::expm1(-dt / d_high);
  }
  // Only VRT rows draw, in ascending row order: the same draws as a walk
  // over every row, so the fault trace does not depend on the walk.  Each
  // draw is Bernoulli(p_flip) in its integer form, on a local copy of the
  // generator that is written back after the walk.
  const std::uint64_t leave_low = Rng::BernoulliThreshold(p_leave_low);
  const std::uint64_t enter_low = Rng::BernoulliThreshold(p_enter_low);
  Rng local = rng;
  for (const std::size_t r : vrt_index_) {
    if (local.BernoulliBelow(in_low_[r] ? leave_low : enter_low)) {
      in_low_[r] = !in_low_[r];
      state.set_vrt_scale(r, in_low_[r] ? params_.low_ratio : 1.0);
    }
  }
  rng = local;
}

// ---------------------------------------------------------------------------
// TemperatureExcursionInjector
// ---------------------------------------------------------------------------

TemperatureExcursionInjector::TemperatureExcursionInjector(
    const retention::TemperatureModel& model, double start_s,
    double duration_s, double peak_celsius)
    : model_(model), start_s_(start_s), duration_s_(duration_s) {
  model_.Validate();
  if (start_s < 0.0 || duration_s <= 0.0) {
    throw ConfigError(
        "TemperatureExcursionInjector: need start >= 0 and duration > 0");
  }
  // An excursion heats the chip: a peak at or below the profiling
  // temperature would lengthen retention instead of shortening it.
  if (!(peak_celsius > model_.profiling_celsius)) {
    throw ConfigError(
        "TemperatureExcursionInjector: peak must be above the profiling "
        "temperature");
  }
  scale_ = model_.RetentionScale(peak_celsius);
}

void TemperatureExcursionInjector::Advance(double now_s, FaultState& state,
                                           Rng& rng) {
  (void)rng;
  const bool hot = now_s >= start_s_ && now_s < start_s_ + duration_s_;
  state.set_temperature_scale(hot ? scale_ : 1.0);
}

// ---------------------------------------------------------------------------
// RetentionDriftInjector
// ---------------------------------------------------------------------------

RetentionDriftInjector::RetentionDriftInjector(double rate_per_s,
                                               double floor_scale)
    : rate_per_s_(rate_per_s), floor_scale_(floor_scale) {
  if (rate_per_s < 0.0) {
    throw ConfigError("RetentionDriftInjector: rate must be >= 0");
  }
  if (floor_scale <= 0.0 || floor_scale > 1.0) {
    throw ConfigError("RetentionDriftInjector: floor scale in (0, 1]");
  }
}

void RetentionDriftInjector::Advance(double now_s, FaultState& state,
                                     Rng& rng) {
  (void)rng;
  state.set_drift_scale(
      std::max(floor_scale_, 1.0 - rate_per_s_ * std::max(now_s, 0.0)));
}

// ---------------------------------------------------------------------------
// ProfileCorruptionInjector
// ---------------------------------------------------------------------------

ProfileCorruptionInjector::ProfileCorruptionInjector(double row_fraction,
                                                     double true_ratio,
                                                     double at_s)
    : row_fraction_(row_fraction), true_ratio_(true_ratio), at_s_(at_s) {
  if (row_fraction < 0.0 || row_fraction > 1.0) {
    throw ConfigError("ProfileCorruptionInjector: row_fraction in [0, 1]");
  }
  if (true_ratio <= 0.0 || true_ratio > 1.0) {
    throw ConfigError("ProfileCorruptionInjector: true_ratio in (0, 1]");
  }
  if (at_s < 0.0) {
    throw ConfigError("ProfileCorruptionInjector: at_s must be >= 0");
  }
}

void ProfileCorruptionInjector::Advance(double now_s, FaultState& state,
                                        Rng& rng) {
  if (fired_ || now_s < at_s_) {
    return;
  }
  for (std::size_t r = 0; r < state.rows(); ++r) {
    if (rng.Bernoulli(row_fraction_)) {
      state.set_corruption_scale(
          r, std::min(state.corruption_scale()[r], true_ratio_));
    }
  }
  fired_ = true;
}

// ---------------------------------------------------------------------------
// FaultSchedule
// ---------------------------------------------------------------------------

FaultSchedule::FaultSchedule(std::uint64_t seed) : seed_(seed) {}

FaultSchedule& FaultSchedule::Add(std::unique_ptr<FaultInjector> injector) {
  if (!injector) {
    throw ConfigError("FaultSchedule: null injector");
  }
  injectors_.push_back(std::move(injector));
  return *this;
}

std::string FaultSchedule::Describe() const {
  std::string out;
  for (const auto& injector : injectors_) {
    if (!out.empty()) {
      out += ", ";
    }
    out += injector->Name();
  }
  return out.empty() ? "none" : out;
}

// ---------------------------------------------------------------------------
// FaultRecording
// ---------------------------------------------------------------------------

FaultRecording::FaultRecording(FaultSchedule schedule,
                               const TickSequence& ticks, std::size_t rows)
    : FaultRecording(std::move(schedule), ticks, rows, DeferDraw{}) {
  Draw();
}

FaultRecording::FaultRecording(FaultSchedule schedule,
                               const TickSequence& ticks, std::size_t rows,
                               DeferDraw)
    : ticks_(ticks), rows_(rows), description_(schedule.Describe()) {
  constexpr std::size_t kMaxIndex = std::numeric_limits<std::uint32_t>::max();
  if (ticks.count > kMaxIndex || rows > kMaxIndex) {
    throw ConfigError("FaultRecording: more than 2^32 ticks or rows");
  }
  pending_.emplace(Pending{std::move(schedule), FaultState(rows)});
  blocks_.resize((ticks.count + kBlockTicks - 1) / kBlockTicks);
}

void FaultRecording::Draw() {
  if (!pending_) {
    throw ConfigError("FaultRecording: already drawn");
  }
  Pending pending = std::move(*pending_);
  pending_.reset();
  FaultState& state = pending.state;
  try {
    Rng rng(pending.schedule.seed_);
    for (std::size_t b = 0; b < blocks_.size(); ++b) {
      const std::size_t end = std::min(ticks_.count, (b + 1) * kBlockTicks);
      for (std::size_t k = b * kBlockTicks; k < end; ++k) {
        state.LogChangesTo(&blocks_[b], static_cast<std::uint32_t>(k));
        for (auto& injector : pending.schedule.injectors_) {
          injector->Advance(ticks_.seconds(k), state, rng);
        }
      }
      published_.store(static_cast<std::uint32_t>(b + 1),
                       std::memory_order_release);
      published_.notify_all();
    }
  } catch (...) {
    error_ = std::current_exception();
    published_.store(kFailed, std::memory_order_release);
    published_.notify_all();
    throw;
  }
}

std::size_t FaultRecording::AwaitBlocks(std::size_t blocks) const {
  std::uint32_t published = published_.load(std::memory_order_acquire);
  while (published < blocks) {
    published_.wait(published, std::memory_order_acquire);
    published = published_.load(std::memory_order_acquire);
  }
  if (published == kFailed) {
    std::rethrow_exception(error_);
  }
  return published;
}

std::vector<FaultWrite> FaultRecording::writes() const {
  AwaitBlocks(blocks_.size());
  std::vector<FaultWrite> out;
  for (const std::vector<FaultWrite>& block : blocks_) {
    out.insert(out.end(), block.begin(), block.end());
  }
  return out;
}

}  // namespace vrl::fault
