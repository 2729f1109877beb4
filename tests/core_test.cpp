#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/error.hpp"
#include "core/experiments.hpp"
#include "core/sweep.hpp"
#include "core/vrl_system.hpp"
#include "dram/policy_registry.hpp"

namespace vrl::core {
namespace {

/// Shared system for the (relatively expensive) integration tests.
class VrlSystemTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    VrlConfig config;
    config.banks = 2;
    system_ = new VrlSystem(config);
  }
  static void TearDownTestSuite() {
    delete system_;
    system_ = nullptr;
  }

  static VrlSystem* system_;
};

VrlSystem* VrlSystemTest::system_ = nullptr;

TEST_F(VrlSystemTest, TauPartialIsCheaper) {
  EXPECT_LT(system_->TauPartialCycles(), system_->TauFullCycles());
  // The paper's ratio: τ_partial/τ_full = 11/19 ≈ 0.58.
  const double ratio = static_cast<double>(system_->TauPartialCycles()) /
                       static_cast<double>(system_->TauFullCycles());
  EXPECT_NEAR(ratio, 0.58, 0.06);
}

TEST_F(VrlSystemTest, MprsfIsCappedByNbits) {
  const auto cap = system_->config().MprsfCap();
  EXPECT_EQ(cap, 3u);
  for (const auto m : system_->row_mprsf()) {
    EXPECT_LE(m, cap);
  }
  EXPECT_EQ(system_->row_mprsf().size(), system_->config().tech.rows);
}

TEST_F(VrlSystemTest, BinningCoversAllRows) {
  std::size_t total = 0;
  for (const auto n : system_->binning().rows_per_bin) {
    total += n;
  }
  EXPECT_EQ(total, system_->config().tech.rows);
}

TEST_F(VrlSystemTest, PolicyOrderingHolds) {
  // JEDEC >= RAIDR >= VRL >= VRL-Access on refresh overhead, for a
  // row-sweeping workload.
  const Cycles horizon = system_->HorizonForWindows(8);
  Rng rng(7);
  const auto records = trace::GenerateTrace(trace::SuiteWorkload("bgsave"),
                                            system_->Geometry(), horizon, rng);
  const auto requests =
      trace::MapToRequests(records, trace::AddressMapper(system_->Geometry()));

  const double jedec =
      system_->Simulate("JEDEC", requests, horizon).RefreshOverheadPerBank();
  const double raidr =
      system_->Simulate("RAIDR", requests, horizon).RefreshOverheadPerBank();
  const double vrl =
      system_->Simulate("VRL", requests, horizon).RefreshOverheadPerBank();
  const double vrl_access = system_->Simulate("VRL-Access", requests, horizon)
                                .RefreshOverheadPerBank();

  EXPECT_GT(jedec, raidr);
  EXPECT_GT(raidr, vrl);
  EXPECT_GT(vrl, vrl_access);
}

TEST_F(VrlSystemTest, VrlSavingsInPaperRange) {
  // The headline: VRL cuts refresh overhead vs RAIDR by ~23% (we accept
  // 15-35%), application-independent.
  const Cycles horizon = system_->HorizonForWindows(8);
  const double raidr =
      system_->Simulate("RAIDR", {}, horizon).RefreshOverheadPerBank();
  const double vrl =
      system_->Simulate("VRL", {}, horizon).RefreshOverheadPerBank();
  const double saving = 1.0 - vrl / raidr;
  EXPECT_GT(saving, 0.15);
  EXPECT_LT(saving, 0.35);
}

TEST_F(VrlSystemTest, VrlOverheadIsApplicationIndependent) {
  const Cycles horizon = system_->HorizonForWindows(4);
  Rng rng(3);
  const auto records = trace::GenerateTrace(trace::SuiteWorkload("canneal"),
                                            system_->Geometry(), horizon, rng);
  const auto requests =
      trace::MapToRequests(records, trace::AddressMapper(system_->Geometry()));
  const double with_trace =
      system_->Simulate("VRL", requests, horizon).RefreshOverheadPerBank();
  const double without =
      system_->Simulate("VRL", {}, horizon).RefreshOverheadPerBank();
  EXPECT_DOUBLE_EQ(with_trace, without);
}

TEST_F(VrlSystemTest, GeometryMatchesConfig) {
  const auto g = system_->Geometry();
  EXPECT_EQ(g.banks, system_->config().banks);
  EXPECT_EQ(g.rows, system_->config().tech.rows);
  EXPECT_EQ(g.columns, system_->config().tech.columns);
}

TEST_F(VrlSystemTest, RunWorkloadNormalizations) {
  ExperimentOptions options;
  options.windows = 4;
  const auto result =
      RunWorkload(*system_, trace::SuiteWorkload("vips"), options);
  EXPECT_EQ(result.workload, "vips");
  EXPECT_LT(result.VrlNormalized(), 1.0);
  EXPECT_LE(result.VrlAccessNormalized(), result.VrlNormalized());
  EXPECT_LT(result.vrl_refresh_power_mw, result.raidr_refresh_power_mw);
}

TEST(VrlConfigTest, ValidatesNbits) {
  VrlConfig config;
  config.nbits = 0;
  EXPECT_THROW(config.Validate(), ConfigError);
  config.nbits = 9;
  EXPECT_THROW(config.Validate(), ConfigError);
  config.nbits = 3;
  EXPECT_NO_THROW(config.Validate());
  EXPECT_EQ(config.MprsfCap(), 7u);
}

TEST(VrlConfigTest, ValidatesBanks) {
  VrlConfig config;
  config.banks = 0;
  EXPECT_THROW(config.Validate(), ConfigError);
}

TEST(PolicyNameTest, AllNamesDistinct) {
  std::set<std::string> names;
  for (const dram::PolicyInfo& info : dram::PolicyRegistry::Global().entries()) {
    EXPECT_TRUE(names.insert(info.name).second) << info.name;
  }
  for (const char* name : {"JEDEC", "RAIDR", "VRL", "VRL-Access"}) {
    EXPECT_EQ(names.count(name), 1u) << name;
  }
}

TEST(AverageTest, AveragesNormalizedOverheads) {
  std::vector<WorkloadResult> results(2);
  results[0].raidr_overhead = 100;
  results[0].vrl_overhead = 80;
  results[0].vrl_access_overhead = 60;
  results[0].raidr_refresh_power_mw = 10;
  results[0].vrl_refresh_power_mw = 9;
  results[0].vrl_access_refresh_power_mw = 8;
  results[1] = results[0];
  results[1].vrl_overhead = 70;
  const auto avg = Average(results);
  EXPECT_NEAR(avg.vrl, 0.75, 1e-12);
  EXPECT_NEAR(avg.vrl_access, 0.6, 1e-12);
  EXPECT_NEAR(avg.vrl_power, 0.9, 1e-12);
}

TEST(AverageTest, EmptyIsZero) {
  const auto avg = Average({});
  EXPECT_DOUBLE_EQ(avg.vrl, 0.0);
}

// ---------------------------------------------------------------------------
// Design-space sweep
// ---------------------------------------------------------------------------

TEST(Sweep, DefaultGridCoversTheKnobs) {
  const auto grid = DefaultGrid();
  EXPECT_GE(grid.size(), 6u);
  bool has_guard = false;
  bool has_salp = false;
  for (const auto& p : grid) {
    if (p.retention_guardband > 1.0) {
      has_guard = true;
    }
    if (p.subarrays > 1) {
      has_salp = true;
    }
  }
  EXPECT_TRUE(has_guard);
  EXPECT_TRUE(has_salp);
}

TEST(Sweep, PointLabelIsReadable) {
  SweepPoint p;
  p.nbits = 3;
  p.partial_target = 0.92;
  EXPECT_EQ(p.Label(), "n3 t0.92 g1.00 s1");
}

TEST(Sweep, RunSweepEvaluatesEveryPoint) {
  VrlConfig base;
  base.banks = 1;
  std::vector<SweepPoint> points(2);
  points[1].nbits = 1;
  const auto results =
      RunSweep(base, points, trace::SuiteWorkload("swaptions"), 2);
  ASSERT_EQ(results.size(), 2u);
  for (const auto& r : results) {
    EXPECT_LT(r.vrl_normalized, 1.0);
    EXPECT_LE(r.vrl_access_normalized, r.vrl_normalized + 1e-9);
    EXPECT_GT(r.logic_area_um2, 0.0);
    EXPECT_GT(r.mean_mprsf, 0.0);
  }
  // Narrower counters cannot beat wider ones on pure VRL.
  EXPECT_LE(results[0].vrl_normalized, results[1].vrl_normalized + 1e-9);
}

TEST(Sweep, RejectsEmptyInput) {
  VrlConfig base;
  EXPECT_THROW(RunSweep(base, {}, trace::SuiteWorkload("vips"), 2),
               ConfigError);
  EXPECT_THROW(RunSweep(base, {SweepPoint{}}, trace::SuiteWorkload("vips"), 0),
               ConfigError);
}

}  // namespace
}  // namespace vrl::core
