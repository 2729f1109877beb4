// Cross-module integration tests: the analytical model validated against
// the transient circuit engine, and the end-to-end data-integrity
// guarantees of the VRL mechanism (including guardband and VRT scenarios).

#include <gtest/gtest.h>

#include <cmath>

#include "circuit/dram_circuits.hpp"
#include "circuit/transient.hpp"
#include "core/integrity.hpp"
#include "core/vrl_system.hpp"
#include "dram/policy_registry.hpp"
#include "model/equalization.hpp"
#include "model/presensing.hpp"
#include "retention/temperature.hpp"
#include "retention/vrt.hpp"

namespace vrl {
namespace {

// ---------------------------------------------------------------------------
// Analytical model vs. circuit reference
// ---------------------------------------------------------------------------

class ModelVsCircuit : public ::testing::TestWithParam<std::size_t> {
 protected:
  TechnologyParams Tech() const {
    TechnologyParams tech;
    tech.rows = GetParam();
    tech.columns = 8;  // keep the transient fast
    return tech;
  }
};

TEST_P(ModelVsCircuit, EqualizationSettleTimesAgree) {
  const TechnologyParams tech = Tech();
  const model::EqualizationModel eq(tech);

  auto circuit = circuit::BuildEqualizationCircuit(tech, 0.0);
  circuit::TransientOptions options;
  options.t_stop_s = 4.0 * eq.EqualizationDelay() + 2e-9;
  options.dt_s = 2e-12;
  const auto wave =
      circuit::RunTransient(circuit.netlist, options, {circuit.bl});

  // Time for the high bitline to come within 20 mV of Veq.
  const double target = tech.Veq() + 0.02;
  const double t_circuit =
      wave.CrossingTime(circuit.bl, target, /*rising=*/false);
  const double t_model = eq.SettleTime(model::BitlineSide::kHigh, 0.02);
  ASSERT_GT(t_circuit, 0.0);
  // Within a factor of two across geometries (the model lumps the
  // distributed bitline; exact agreement is not expected).
  EXPECT_LT(t_model, 2.0 * t_circuit);
  EXPECT_GT(t_model, 0.5 * t_circuit);
}

TEST_P(ModelVsCircuit, ChargeSharingSwingAgrees) {
  // Compare with the wordline coupling channel disabled: the paper's Eq. 7
  // treats Cbw purely as extra load, while the circuit also sees the boost
  // a rising wordline injects through it — a real divergence that grows
  // with Cbl and is not what this test is about.
  TechnologyParams tech = Tech();
  tech.cbw_ratio = 0.0;
  const model::PreSensingModel pre(tech);

  auto array = circuit::BuildChargeSharingArray(
      tech, DataPattern::kAllOnes, 1.0, 20e-12);
  circuit::TransientOptions options;
  options.t_stop_s = 30e-9;
  options.dt_s = 20e-12;
  const std::size_t mid = tech.columns / 2;
  const auto wave =
      circuit::RunTransient(array.netlist, options, {array.bitline_nodes[mid]});

  const double dv_circuit =
      wave.FinalValue(array.bitline_nodes[mid]) - tech.Veq();
  const auto dv_model =
      pre.SenseVoltagesForPattern(DataPattern::kAllOnes, 1.0)[mid];
  EXPECT_NEAR(dv_circuit, dv_model, 0.25 * dv_circuit);
  EXPECT_GT(dv_circuit, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Rows, ModelVsCircuit,
                         ::testing::Values(std::size_t{2048},
                                           std::size_t{8192},
                                           std::size_t{16384}));

// ---------------------------------------------------------------------------
// End-to-end integrity of the VRL mechanism
// ---------------------------------------------------------------------------

class IntegrityAtProfilingConditions
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(IntegrityAtProfilingConditions, AllPoliciesAreLossFree) {
  core::VrlConfig config;
  config.banks = 1;
  config.seed = GetParam();
  const core::VrlSystem system(config);
  const core::IntegrityChecker checker(system);

  for (const dram::PolicyInfo& info :
       dram::PolicyRegistry::Global().entries()) {
    const auto report = checker.Check(info.name, 8);
    EXPECT_FALSE(report.DataLost()) << info.name;
    EXPECT_GT(report.refreshes_checked, 0u);
    EXPECT_GE(report.min_margin, -1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IntegrityAtProfilingConditions,
                         ::testing::Values(42u, 7u, 1234u));

TEST(Integrity, ExceedingMprsfLosesData) {
  core::VrlConfig config;
  config.banks = 1;
  const core::VrlSystem system(config);

  std::vector<std::size_t> aggressive;
  aggressive.reserve(system.row_mprsf().size());
  for (const auto m : system.row_mprsf()) {
    aggressive.push_back(m + 1);
  }
  const core::IntegrityChecker checker(system);
  const auto report = checker.CheckWithMprsf(aggressive, 8);
  EXPECT_TRUE(report.DataLost());
  EXPECT_GT(report.failures, 100u);
}

TEST(Integrity, VrlUsesPartialsButStaysSafe) {
  core::VrlConfig config;
  config.banks = 1;
  const core::VrlSystem system(config);
  const core::IntegrityChecker checker(system);
  const auto report = checker.Check("VRL", 8);
  EXPECT_GT(report.partial_refreshes, report.refreshes_checked / 4);
  EXPECT_FALSE(report.DataLost());
}

TEST(Integrity, HotterThanProfilingLosesDataWithoutGuardband) {
  core::VrlConfig config;
  config.banks = 1;
  const core::VrlSystem system(config);
  const retention::TemperatureModel temperature;
  const core::IntegrityChecker checker(system,
                                       temperature.RetentionScale(55.0));
  EXPECT_TRUE(checker.Check("VRL", 8).DataLost());
}

TEST(Integrity, GuardbandCoversItsRatedTemperature) {
  core::VrlConfig config;
  config.banks = 1;
  config.retention_guardband = 2.0;
  const core::VrlSystem system(config);
  const retention::TemperatureModel temperature;
  // 2x guardband is rated to 55C; check a temperature safely inside, and
  // ignore the clamped weak rows (they are reported as unprotected).
  const double scale = temperature.RetentionScale(52.0);
  const core::IntegrityChecker checker(system, scale);
  const auto report = checker.Check("VRL", 8);
  // Failures, if any, must be attributable to clamped rows only.
  EXPECT_LE(report.failures, system.guardband_clamped_rows() * 200);
  if (system.guardband_clamped_rows() == 0) {
    EXPECT_FALSE(report.DataLost());
  }
}

TEST(Integrity, WorstCaseVrtNeedsGuardband) {
  retention::VrtParams vrt;
  vrt.low_ratio = 0.6;
  vrt.row_fraction = 0.05;

  core::VrlConfig config;
  config.banks = 1;
  const core::VrlSystem unguarded(config);
  Rng rng(3);
  const auto vrt_rows =
      retention::SampleVrtRows(vrt, unguarded.profile().rows(), rng);
  const auto runtime = retention::WorstCaseRuntimeProfile(
      unguarded.profile(), vrt_rows, vrt);

  // Without a guardband the VRT rows fail...
  const core::IntegrityChecker bare(unguarded, runtime);
  EXPECT_TRUE(bare.Check("VRL", 8).DataLost());

  // ...with a guardband covering the VRT low ratio they do not (modulo
  // clamped weak rows).
  core::VrlConfig guarded_config = config;
  guarded_config.retention_guardband = 1.0 / vrt.low_ratio;
  const core::VrlSystem guarded(guarded_config);
  Rng rng2(3);
  const auto guarded_vrt_rows =
      retention::SampleVrtRows(vrt, guarded.profile().rows(), rng2);
  const auto guarded_runtime = retention::WorstCaseRuntimeProfile(
      guarded.profile(), guarded_vrt_rows, vrt);
  const core::IntegrityChecker safe(guarded, guarded_runtime);
  const auto report = safe.Check("VRL", 8);
  EXPECT_LE(report.failures, guarded.guardband_clamped_rows() * 200);
}

// Exact pins of the replay: IntegrityChecker shares ChargeTracker ->
// RefreshModel::ApplyRefresh with the fault campaigns, and a rounding
// change anywhere on that path moves these numbers.
void ExpectReport(const core::IntegrityReport& report, std::size_t checked,
                  std::size_t partials, std::size_t failures,
                  std::size_t first_row, double first_time_s,
                  double min_margin) {
  EXPECT_EQ(report.refreshes_checked, checked);
  EXPECT_EQ(report.partial_refreshes, partials);
  EXPECT_EQ(report.failures, failures);
  EXPECT_EQ(report.first_failed_row, first_row);
  EXPECT_EQ(report.first_failure_time_s, first_time_s);
  EXPECT_EQ(report.min_margin, min_margin);
}

TEST(IntegrityChecker, ReplayNumbersArePinned) {
  core::VrlConfig config;
  config.banks = 1;
  const core::VrlSystem system(config);
  ExpectReport(core::IntegrityChecker(system).Check("VRL", 4), 8548, 4914, 0,
               0, 0.0, 0x1.9897a2dbe7cp-10);

  const retention::TemperatureModel temperature;
  ExpectReport(
      core::IntegrityChecker(system, temperature.RetentionScale(55.0))
          .Check("VRL", 4),
      8548, 4914, 1346, 5737, 0x1.6f2b020c49ba6p-5, -0x1.ef1dcafd34c7p-3);
}

TEST(IntegrityChecker, GuardbandedMprsfReplayIsPinned) {
  core::VrlConfig config;
  config.banks = 1;
  config.retention_guardband = 2.0;
  const core::VrlSystem system(config);
  std::vector<std::size_t> aggressive;
  for (const auto m : system.row_mprsf()) {
    aggressive.push_back(m + 1);
  }
  const retention::TemperatureModel temperature;
  ExpectReport(
      core::IntegrityChecker(system, temperature.RetentionScale(52.0))
          .CheckWithMprsf(aggressive, 4),
      11686, 7316, 230, 5791, 0x1.729fbe76c8b44p-5, -0x1.f317c01b17183p-2);
}

/// One pinned IntegrityReport: what ExpectReport compares.
struct ReplayPin {
  const char* policy;
  std::size_t checked;
  std::size_t partials;
  std::size_t failures;
  std::size_t first_row;
  double first_time_s;
  double min_margin;
};

void ExpectPins(const core::IntegrityChecker& checker,
                const std::vector<ReplayPin>& pins) {
  // Every registry policy is pinned, in registry order.
  const auto& entries = dram::PolicyRegistry::Global().entries();
  ASSERT_EQ(pins.size(), entries.size());
  for (std::size_t i = 0; i < pins.size(); ++i) {
    const ReplayPin& pin = pins[i];
    SCOPED_TRACE(pin.policy);
    ASSERT_EQ(entries[i].name, pin.policy);
    ExpectReport(checker.Check(pin.policy, 4), pin.checked, pin.partials,
                 pin.failures, pin.first_row, pin.first_time_s,
                 pin.min_margin);
  }
}

TEST(IntegrityChecker, EveryPolicyReplayIsPinned) {
  core::VrlConfig config;
  config.banks = 1;
  const core::VrlSystem system(config);
  ExpectPins(core::IntegrityChecker(system),
             {
                 {"JEDEC", 32769, 0, 0, 0, 0x0p+0, 0x1.028525cccf2p-7},
                 {"RAIDR", 8548, 0, 0, 0, 0x0p+0, 0x1.9897a2dbe7cp-10},
                 {"VRL", 8548, 4914, 0, 0, 0x0p+0, 0x1.9897a2dbe7cp-10},
                 {"VRL-Access", 8548, 4914, 0, 0, 0x0p+0, 0x1.9897a2dbe7cp-10},
                 {"VRL-Skip", 8548, 4914, 0, 0, 0x0p+0, 0x1.9897a2dbe7cp-10},
                 {"DARP", 32769, 0, 0, 0, 0x0p+0, 0x1.028525cccf2p-7},
                 {"SARP", 32769, 0, 0, 0, 0x0p+0, 0x1.028525cccf2p-7},
             });
  const retention::TemperatureModel temperature;
  ExpectPins(core::IntegrityChecker(system, temperature.RetentionScale(55.0)),
             {
                 {"JEDEC", 32769, 0, 221, 5737, 0x1.6f2b020c49ba6p-5,
                  -0x1.dfec4fb0b0574p-3},
                 {"RAIDR", 8548, 0, 1346, 5737, 0x1.6f2b020c49ba6p-5,
                  -0x1.ef1dcafd34c7p-3},
                 {"VRL", 8548, 4914, 1346, 5737, 0x1.6f2b020c49ba6p-5,
                  -0x1.ef1dcafd34c7p-3},
                 {"VRL-Access", 8548, 4914, 1346, 5737, 0x1.6f2b020c49ba6p-5,
                  -0x1.ef1dcafd34c7p-3},
                 {"VRL-Skip", 8548, 4914, 1346, 5737, 0x1.6f2b020c49ba6p-5,
                  -0x1.ef1dcafd34c7p-3},
                 {"DARP", 32769, 0, 221, 5737, 0x1.6f2b020c49ba6p-5,
                  -0x1.dfec4fb0b0574p-3},
                 {"SARP", 32769, 0, 221, 5737, 0x1.6f2b020c49ba6p-5,
                  -0x1.dfec4fb0b0574p-3},
             });
}

// The explicit runtime-profile constructor: a worst-case VRT snapshot, as
// sensed at the profiling temperature and scaled to a hotter one.
TEST(IntegrityChecker, RuntimeProfileReplayIsPinned) {
  retention::VrtParams vrt;
  vrt.low_ratio = 0.6;
  vrt.row_fraction = 0.05;
  core::VrlConfig config;
  config.banks = 1;
  const core::VrlSystem system(config);
  Rng rng(3);
  const auto runtime = retention::WorstCaseRuntimeProfile(
      system.profile(),
      retention::SampleVrtRows(vrt, system.profile().rows(), rng), vrt);
  ExpectPins(core::IntegrityChecker(system, runtime),
             {
                 {"JEDEC", 32769, 0, 0, 0, 0x0p+0, 0x1.028525cccf2p-7},
                 {"RAIDR", 8548, 0, 32, 7237, 0x1.cf2b020c49ba6p-4,
                  -0x1.529b9ca57526ep-3},
                 {"VRL", 8548, 4914, 32, 7237, 0x1.cf2b020c49ba6p-4,
                  -0x1.529b9ca57526ep-3},
                 {"VRL-Access", 8548, 4914, 32, 7237, 0x1.cf2b020c49ba6p-4,
                  -0x1.529b9ca57526ep-3},
                 {"VRL-Skip", 8548, 4914, 32, 7237, 0x1.cf2b020c49ba6p-4,
                  -0x1.529b9ca57526ep-3},
                 {"DARP", 32769, 0, 0, 0, 0x0p+0, 0x1.028525cccf2p-7},
                 {"SARP", 32769, 0, 0, 0, 0x0p+0, 0x1.028525cccf2p-7},
             });
  const retention::TemperatureModel temperature;
  ExpectPins(
      core::IntegrityChecker(system, runtime, temperature.RetentionScale(50.0)),
      {
          {"JEDEC", 32769, 0, 93, 6766, 0x1.b10624dd2f1aap-5,
           -0x1.bb458c5cdfe1p-4},
          {"RAIDR", 8548, 0, 505, 6766, 0x1.b10624dd2f1aap-5,
           -0x1.2af7abeb7708ep-2},
          {"VRL", 8548, 4914, 545, 6766, 0x1.b10624dd2f1aap-5,
           -0x1.2af7abeb7708ep-2},
          {"VRL-Access", 8548, 4914, 545, 6766, 0x1.b10624dd2f1aap-5,
           -0x1.2af7abeb7708ep-2},
          {"VRL-Skip", 8548, 4914, 545, 6766, 0x1.b10624dd2f1aap-5,
           -0x1.2af7abeb7708ep-2},
          {"DARP", 32769, 0, 93, 6766, 0x1.b10624dd2f1aap-5,
           -0x1.bb458c5cdfe1p-4},
          {"SARP", 32769, 0, 93, 6766, 0x1.b10624dd2f1aap-5,
           -0x1.bb458c5cdfe1p-4},
      });
}

TEST(IntegrityChecker, RejectsBadInputs) {
  core::VrlConfig config;
  config.banks = 1;
  const core::VrlSystem system(config);
  EXPECT_THROW(core::IntegrityChecker(system, 0.0), ConfigError);
  EXPECT_THROW(core::IntegrityChecker(system).Check("VRL", 0), ConfigError);
  const retention::RetentionProfile wrong_size({1.0, 2.0});
  EXPECT_THROW(core::IntegrityChecker(system, wrong_size), ConfigError);
  std::vector<std::size_t> wrong_mprsf(3, 1);
  EXPECT_THROW(core::IntegrityChecker(system).CheckWithMprsf(wrong_mprsf, 4),
               ConfigError);
}

// ---------------------------------------------------------------------------
// Guardband planning properties
// ---------------------------------------------------------------------------

class GuardbandProperty : public ::testing::TestWithParam<double> {};

TEST_P(GuardbandProperty, MoreGuardMoreOverheadMoreClamped) {
  core::VrlConfig base;
  base.banks = 1;
  const core::VrlSystem plain(base);

  core::VrlConfig guarded_config = base;
  guarded_config.retention_guardband = GetParam();
  const core::VrlSystem guarded(guarded_config);

  EXPECT_GE(guarded.guardband_clamped_rows(),
            plain.guardband_clamped_rows());

  const Cycles horizon = plain.HorizonForWindows(8);
  const double plain_overhead =
      plain.Simulate("VRL", {}, horizon).RefreshOverheadPerBank();
  const double guarded_overhead =
      guarded.Simulate("VRL", {}, horizon).RefreshOverheadPerBank();
  EXPECT_GE(guarded_overhead, plain_overhead * 0.999);
}

INSTANTIATE_TEST_SUITE_P(Guards, GuardbandProperty,
                         ::testing::Values(1.2, 1.5, 2.0));

TEST(GuardbandConfig, RejectsBelowOne) {
  core::VrlConfig config;
  config.retention_guardband = 0.9;
  EXPECT_THROW(config.Validate(), ConfigError);
}

}  // namespace
}  // namespace vrl
