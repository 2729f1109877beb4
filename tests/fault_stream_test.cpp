// The streamed fault recording: campaign legs replay a realization while it
// is drawn (fault::FaultRecording's published blocks, core::RunFaultLegs).
// A replay waiting on a block that is never published would hang, so this
// binary's tests run under a ctest TIMEOUT (tests/CMakeLists.txt).

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "core/experiments.hpp"
#include "core/vrl_system.hpp"
#include "fault/injector.hpp"
#include "retention/temperature.hpp"
#include "retention/vrt.hpp"
#include "telemetry/recorder.hpp"

namespace vrl::fault {
namespace {

/// 2 000 ticks of 1 ms (400 k cycles at 2.5 ns): eight published blocks,
/// the last one partial.
constexpr TickSequence kTicks = {400'000, 2'000, 2.5e-9};
constexpr std::size_t kRows = 256;
constexpr std::uint64_t kSeed = 21;

/// The first tick of the fourth block: a leg that has replayed the ticks
/// before it has replayed three published blocks.
constexpr std::size_t kGateTick = 3 * FaultRecording::kBlockTicks;

/// Holds the draw at `at_tick` until `open` is set, writing nothing.  With
/// the gate on the draw's thread and the opener on a leg's, the leg must
/// replay the blocks before the gate while the draw is still running.
class GateInjector : public FaultInjector {
 public:
  GateInjector(double at_s, const std::atomic<bool>* open)
      : at_s_(at_s), open_(open) {}

  void Advance(double now_s, FaultState&, Rng&) override {
    if (open_ != nullptr && now_s >= at_s_) {
      open_->wait(false);
      open_ = nullptr;
    }
  }
  std::string Name() const override { return "gate"; }

 private:
  double at_s_;
  const std::atomic<bool>* open_;
};

/// All four injectors, each changing its component within kTicks: a fast
/// VRT telegraph, a hot window from 0.5 s to 1.2 s, drift reaching its
/// floor at 1.6 s and a corruption firing at 0.9 s.
FaultSchedule FourInjectors(const std::atomic<bool>* gate = nullptr) {
  retention::VrtParams vrt;
  vrt.row_fraction = 0.2;
  vrt.mean_dwell_s = 0.02;
  FaultSchedule schedule(kSeed);
  schedule.Add(std::make_unique<VrtFlipInjector>(vrt));
  schedule.Add(std::make_unique<TemperatureExcursionInjector>(
      retention::TemperatureModel{}, 0.5, 0.7, 85.0));
  schedule.Add(std::make_unique<RetentionDriftInjector>(0.125, 0.8));
  schedule.Add(std::make_unique<ProfileCorruptionInjector>(0.1, 0.8, 0.9));
  schedule.Add(std::make_unique<GateInjector>(kTicks.seconds(kGateTick),
                                              gate));
  return schedule;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

bool SameState(const FaultState& a, const FaultState& b) {
  return SameBits(a.vrt_scale(), b.vrt_scale()) &&
         SameBits(a.corruption_scale(), b.corruption_scale()) &&
         std::bit_cast<std::uint64_t>(a.temperature_scale()) ==
             std::bit_cast<std::uint64_t>(b.temperature_scale()) &&
         std::bit_cast<std::uint64_t>(a.drift_scale()) ==
             std::bit_cast<std::uint64_t>(b.drift_scale());
}

TEST(FaultStream, CursorsRacingTheDrawReplayTheCompleteRecording) {
  const FaultRecording complete(FourInjectors(), kTicks, kRows);
  const std::vector<FaultWrite> expected = complete.writes();
  // Every component changes, and the writes run into the seventh block
  // (drift declines until tick 1 600).
  std::size_t by_component[4] = {};
  for (const FaultWrite& write : expected) {
    ++by_component[static_cast<std::size_t>(write.component)];
  }
  for (const std::size_t count : by_component) {
    EXPECT_GT(count, 0u);
  }
  ASSERT_GE(expected.back().tick, 6 * FaultRecording::kBlockTicks);

  constexpr std::size_t kLegs = 7;
  for (const std::size_t threads : {1u, 2u, 3u, 8u}) {
    SCOPED_TRACE(threads);
    // At one thread the draw ends before any leg starts, so nothing may
    // wait on the gate; above it, leg 0 opens the gate once it has
    // replayed every tick before it.
    std::atomic<bool> gate{threads == 1};
    FaultRecording streamed(FourInjectors(&gate), kTicks, kRows,
                            DeferDraw{});
    std::vector<std::vector<FaultWrite>> applied(kLegs);
    std::vector<std::size_t> first_mismatch(kLegs, kTicks.count);
    ParallelFor(
        kLegs + 1,
        [&](std::size_t item) {
          if (item == 0) {
            streamed.Draw();
            return;
          }
          const std::size_t leg = item - 1;
          // The raced state logs every write the cursor applies: the
          // recorded writes are changes, so it logs each one once.
          FaultState raced(kRows);
          FaultState reference(kRows);
          ReplayCursor racing(streamed);
          ReplayCursor settled(complete);
          for (std::size_t k = 0; k < kTicks.count; ++k) {
            if (leg == 0 && k == kGateTick) {
              gate.store(true);
              gate.notify_all();
            }
            raced.LogChangesTo(&applied[leg], static_cast<std::uint32_t>(k));
            racing.ApplyThrough(k, raced);
            settled.ApplyThrough(k, reference);
            if (first_mismatch[leg] == kTicks.count &&
                !SameState(raced, reference)) {
              first_mismatch[leg] = k;
            }
          }
        },
        threads);

    for (std::size_t leg = 0; leg < kLegs; ++leg) {
      SCOPED_TRACE(leg);
      EXPECT_EQ(first_mismatch[leg], kTicks.count);
      ASSERT_EQ(applied[leg].size(), expected.size());
      for (std::size_t w = 0; w < expected.size(); ++w) {
        const FaultWrite& got = applied[leg][w];
        const FaultWrite& want = expected[w];
        ASSERT_TRUE(got.tick == want.tick && got.component == want.component &&
                    got.row == want.row &&
                    std::bit_cast<std::uint64_t>(got.value) ==
                        std::bit_cast<std::uint64_t>(want.value))
            << "write " << w;
      }
    }
    EXPECT_EQ(streamed.writes().size(), expected.size());
  }
}

TEST(FaultStream, ADrawIsOneCall) {
  FaultRecording recording(FaultSchedule{}, kTicks, kRows, DeferDraw{});
  recording.Draw();
  EXPECT_THROW(recording.Draw(), ConfigError);
  FaultRecording complete(FaultSchedule{}, kTicks, kRows);
  EXPECT_THROW(complete.Draw(), ConfigError);
}

/// The error a ThrowingInjector raises.
struct InjectorError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Throws InjectorError on the first tick at or after `at_s`.
class ThrowingInjector : public FaultInjector {
 public:
  explicit ThrowingInjector(double at_s) : at_s_(at_s) {}

  void Advance(double now_s, FaultState&, Rng&) override {
    if (now_s >= at_s_) {
      throw InjectorError("injector failed at " + std::to_string(now_s));
    }
  }
  std::string Name() const override { return "throwing"; }

 private:
  double at_s_;
};

TEST(FaultStream, AFailedDrawFailsEveryLeg) {
  core::VrlConfig config;
  config.banks = 1;
  const core::VrlSystem system(config);
  constexpr std::size_t kWindows = 1;
  const TickSequence ticks = system.CampaignSetupFor(kWindows).Ticks();
  const std::vector<core::ResilienceLeg> legs = core::ResilienceLegs("VRL");
  for (const std::size_t at_tick :
       {std::size_t{0}, std::size_t{1000}, ticks.count - 1}) {
    const std::string expected =
        "injector failed at " + std::to_string(ticks.seconds(at_tick));
    for (const std::size_t threads : {1u, 2u, 3u, 8u}) {
      SCOPED_TRACE("tick " + std::to_string(at_tick) + ", " +
                   std::to_string(threads) + " threads");
      FaultSchedule schedule(kSeed);
      schedule.Add(std::make_unique<VrtFlipInjector>(retention::VrtParams{}));
      schedule.Add(
          std::make_unique<ThrowingInjector>(ticks.seconds(at_tick)));
      telemetry::Recorder sink;
      std::atomic<std::size_t> rethrown{0};
      try {
        core::RunFaultLegs(
            system, std::move(schedule), kWindows, legs.size(), &sink,
            threads,
            [&](std::size_t i, const FaultRecording& recording,
                telemetry::Recorder* shard) {
              try {
                system.RunFaultCampaign(legs[i], recording, shard);
              } catch (const InjectorError& error) {
                EXPECT_EQ(error.what(), expected);
                ++rethrown;
                throw;
              }
              ADD_FAILURE() << "leg " << i << " replayed a failed draw";
            });
        ADD_FAILURE() << "RunFaultLegs returned";
      } catch (const InjectorError& error) {
        EXPECT_EQ(error.what(), expected);
      }
      // Serially the draw fails before any leg starts; in parallel every
      // leg that started rethrew the draw's error.
      if (threads == 1) {
        EXPECT_EQ(rethrown.load(), 0u);
      }
    }
  }
}

}  // namespace
}  // namespace vrl::fault
