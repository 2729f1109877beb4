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
