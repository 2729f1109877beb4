#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
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
///
/// A FaultRecording advances a schedule once over a campaign's tick
/// sequence and keeps the component writes; every campaign plays them back
/// through a ReplayCursor, which may follow the draw while it runs
/// (docs/FAULTS.md §4).

namespace vrl::fault {

/// The campaign clock: tick k of `count` falls on cycle k * period and at
/// CyclesToSeconds(k * period, clock_period_s).  fault::RunCampaign walks
/// it (CampaignSetup::Ticks) and a FaultRecording is taken over it.
struct TickSequence {
  Cycles period = 1;
  std::size_t count = 0;
  double clock_period_s = 1.0;

  bool operator==(const TickSequence&) const = default;

  Cycles cycle(std::size_t k) const {
    return static_cast<Cycles>(k) * period;
  }
  double seconds(std::size_t k) const {
    return CyclesToSeconds(cycle(k), clock_period_s);
  }
};

/// The components of a FaultState, one per injector type.
enum class FaultComponent : std::uint8_t {
  kVrt,
  kCorruption,
  kTemperature,
  kDrift,
};

/// One logged change of a FaultState component: from tick `tick` of the
/// recorded sequence on, the component (of `row`, for the per-row ones;
/// 0 for the bank-wide ones) holds `value`.
struct FaultWrite {
  std::uint32_t tick = 0;
  FaultComponent component = FaultComponent::kVrt;
  std::uint32_t row = 0;
  double value = 1.0;
};

/// Mutable runtime condition of one bank, written by injectors and read by
/// the campaign loop.  Effective runtime retention of row r is
///   profiled_retention(r) * RowScale(r).
class FaultState {
 public:
  explicit FaultState(std::size_t rows);

  std::size_t rows() const { return vrt_scale_.size(); }

  /// Product of all fault components for one row.
  double RowScale(std::size_t row) const;

  // Component accessors — one injector type writes each.  A per-row setter
  // throws vrl::ConfigError for a row out of range, a bank-wide one for a
  // scale that is not positive.
  const std::vector<double>& vrt_scale() const { return vrt_scale_; }
  const std::vector<double>& corruption_scale() const {
    return corruption_scale_;
  }
  void set_vrt_scale(std::size_t row, double scale);
  void set_corruption_scale(std::size_t row, double scale);
  void set_temperature_scale(double scale);
  void set_drift_scale(double scale);
  double temperature_scale() const { return temperature_scale_; }
  double drift_scale() const { return drift_scale_; }

  /// From now on, appends every write that changes a component to `log`,
  /// stamped `tick`; null stops logging.
  void LogChangesTo(std::vector<FaultWrite>* log, std::uint32_t tick) {
    log_ = log;
    log_tick_ = tick;
  }

  /// Applies one logged write.
  void Apply(const FaultWrite& write);

 private:
  void CheckRow(std::size_t row) const;
  /// Sets `slot` to `value`, logging the write when it changes it.
  void Write(double& slot, double value, FaultComponent component,
             std::size_t row);

  std::vector<double> vrt_scale_;         ///< 1.0 or VrtParams::low_ratio.
  std::vector<double> corruption_scale_;  ///< <= 1.0, sticky once applied.
  double temperature_scale_ = 1.0;
  double drift_scale_ = 1.0;
  std::vector<FaultWrite>* log_ = nullptr;
  std::uint32_t log_tick_ = 0;
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

/// A composed set of injectors and the seed of the fault RNG they draw
/// from.  Only a FaultRecording advances it, once, over a campaign's ticks.
class FaultSchedule {
 public:
  explicit FaultSchedule(std::uint64_t seed = 0x5EEDFA17ULL);

  /// \throws vrl::ConfigError for a null injector.
  FaultSchedule& Add(std::unique_ptr<FaultInjector> injector);

  /// Comma-joined injector names, for reports.
  std::string Describe() const;

 private:
  friend class FaultRecording;

  std::uint64_t seed_;
  std::vector<std::unique_ptr<FaultInjector>> injectors_;
};

/// Tag of the FaultRecording constructor that sizes a recording without
/// drawing it; FaultRecording::Draw then draws it.
struct DeferDraw {};

/// One fault realization, drawn once and replayed into many campaigns:
/// a schedule advanced over a tick sequence, kept as the log of the
/// component writes that changed a value (no per-tick arrays).
///
/// The draw publishes its log in blocks of kBlockTicks ticks.  A published
/// block is immutable and never moves (the block table is sized from the
/// tick count before the draw starts), so a ReplayCursor on another thread
/// may replay the blocks already published while the draw goes on, and
/// waits (std::atomic::wait, not a spin) for the ones it has not reached.
/// A recording whose draw has ended is read-only and never waits.
class FaultRecording {
 public:
  /// Ticks per published block of writes.
  static constexpr std::size_t kBlockTicks = 256;

  /// Advances every injector of `schedule`, in order and from one
  /// generator seeded with its seed, on every tick of `ticks` for a bank
  /// of `rows` rows: the deferred constructor, then Draw on this thread.
  /// \throws vrl::ConfigError for no rows, or for more than 2^32 ticks or
  /// rows.
  FaultRecording(FaultSchedule schedule, const TickSequence& ticks,
                 std::size_t rows);

  /// Takes the schedule, allocates the state it advances and sizes the
  /// block table, drawing nothing: until Draw publishes a tick, a cursor
  /// waiting on it blocks.  Run Draw as a fan-out item claimed before every
  /// item that replays the recording.
  /// \throws vrl::ConfigError as the drawing constructor does.
  FaultRecording(FaultSchedule schedule, const TickSequence& ticks,
                 std::size_t rows, DeferDraw);

  FaultRecording(const FaultRecording&) = delete;
  FaultRecording& operator=(const FaultRecording&) = delete;

  /// Draws the realization to the end on this thread, publishing each
  /// block as it completes.  Call it once.  If an injector throws, the
  /// recording ends in a failed state holding the exception, every waiting
  /// or later cursor rethrows it, and Draw rethrows it too.
  /// \throws vrl::ConfigError when the recording was already drawn.
  void Draw();

  const TickSequence& ticks() const { return ticks_; }
  std::size_t rows() const { return rows_; }
  /// A copy of every write, in (tick, write order) order, once the draw
  /// has ended (waiting for it until then).
  std::vector<FaultWrite> writes() const;
  /// The recorded schedule's FaultSchedule::Describe().
  const std::string& description() const { return description_; }

 private:
  friend class ReplayCursor;

  /// Published-block count of a failed draw.
  static constexpr std::uint32_t kFailed =
      std::numeric_limits<std::uint32_t>::max();

  /// Blocks until at least `blocks` blocks are published; returns the
  /// published count.  \throws what the draw threw, once it has failed.
  std::size_t AwaitBlocks(std::size_t blocks) const;

  TickSequence ticks_;
  std::size_t rows_;
  std::string description_;
  /// What the draw advances, allocated with the recording (on the thread
  /// that builds it) and released when the draw ends.
  struct Pending {
    FaultSchedule schedule;
    FaultState state;
  };
  std::optional<Pending> pending_;
  /// Block b holds the writes of ticks b * kBlockTicks up to (b + 1) *
  /// kBlockTicks.  Only the draw writes a block, and only before it
  /// publishes it.
  std::vector<std::vector<FaultWrite>> blocks_;
  /// Blocks published so far (release), or kFailed.
  std::atomic<std::uint32_t> published_{0};
  /// What the draw threw; written before kFailed is published.
  std::exception_ptr error_;
};

/// Plays a recording, which must outlive the cursor, back into a
/// FaultState of its row count: after ApplyThrough(k, state) for
/// k = 0, 1, ... in turn, `state` holds what the recorded schedule's state
/// held at tick k, bit for bit.
class ReplayCursor {
 public:
  explicit ReplayCursor(const FaultRecording& recording)
      : recording_(&recording) {}

  /// Applies every write recorded at or before tick `k` not applied yet,
  /// first waiting, if the draw is still running, until it has published
  /// the block of tick k.  \throws what the draw threw, if it failed.
  void ApplyThrough(std::size_t k, FaultState& state) {
    const std::vector<std::vector<FaultWrite>>& blocks = recording_->blocks_;
    const std::size_t through =
        std::min(k / FaultRecording::kBlockTicks + 1, blocks.size());
    if (through > published_) {
      published_ = recording_->AwaitBlocks(through);
    }
    for (; block_ < through; ++block_, next_ = 0) {
      const std::vector<FaultWrite>& writes = blocks[block_];
      for (; next_ < writes.size() && writes[next_].tick <= k; ++next_) {
        state.Apply(writes[next_]);
      }
      if (next_ < writes.size()) {
        return;  // The rest of this block lies after tick k.
      }
    }
  }

 private:
  const FaultRecording* recording_;
  std::size_t published_ = 0;  ///< Blocks known to be published.
  std::size_t block_ = 0;      ///< The block being applied.
  std::size_t next_ = 0;       ///< Its next write.
};

}  // namespace vrl::fault
