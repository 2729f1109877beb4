#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/nodes.hpp"
#include "common/rng.hpp"
#include "core/experiments.hpp"
#include "core/sweep.hpp"
#include "core/vrl_system.hpp"
#include "dram/policy_registry.hpp"
#include "model/refresh_model.hpp"
#include "retention/distribution.hpp"
#include "retention/mprsf.hpp"
#include "retention/profile.hpp"
#include "runtime/resilient.hpp"

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
      runtime::RunSweep(base, points, trace::SuiteWorkload("swaptions"), 2);
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
  EXPECT_THROW(runtime::RunSweep(base, {}, trace::SuiteWorkload("vips"), 2),
               ConfigError);
  EXPECT_THROW(
      runtime::RunSweep(base, {SweepPoint{}}, trace::SuiteWorkload("vips"), 0),
      ConfigError);
}

// ---------------------------------------------------------------------------
// MPRSF planning: the per-bin bisection equals the per-row model
// ---------------------------------------------------------------------------

/// Reference MPRSF table: one model evaluation per row.
std::vector<std::size_t> PerRowMprsf(const retention::MprsfCalculator& calc,
                                     const std::vector<double>& retention,
                                     const retention::BinningResult& binning,
                                     std::size_t max_partials) {
  std::vector<std::size_t> mprsf(retention.size());
  for (std::size_t r = 0; r < retention.size(); ++r) {
    mprsf[r] =
        calc.ComputeMprsf(retention[r], binning.RowPeriod(r), max_partials);
  }
  return mprsf;
}

/// The planning retention VrlSystem bins and plans on: the (remapped)
/// profile derated by the guardband, clamped at the base period.
std::vector<double> PlanningRetention(const VrlSystem& system) {
  const double base = retention::StandardBinPeriods().front();
  std::vector<double> planned = system.profile().row_retention();
  for (double& t : planned) {
    t = std::max(t / system.config().retention_guardband, base);
  }
  return planned;
}

struct PlanCase {
  std::string name;
  std::function<void(VrlConfig&)> configure;
};

void PrintTo(const PlanCase& plan_case, std::ostream* os) {
  *os << plan_case.name;
}

std::vector<PlanCase> PlanCases() {
  std::vector<PlanCase> cases;
  // The ledger's seeds and four more.
  for (const std::uint64_t seed : {42u, 7u, 1u, 2u, 3u, 1234u}) {
    cases.push_back({"seed" + std::to_string(seed),
                     [seed](VrlConfig& c) { c.seed = seed; }});
  }
  // ablation_nbits.
  for (const std::size_t nbits : {1u, 3u, 4u}) {
    cases.push_back({"nbits" + std::to_string(nbits),
                     [nbits](VrlConfig& c) { c.nbits = nbits; }});
  }
  // ablation_guardband.
  const struct {
    const char* name;
    double guard;
    std::size_t spares;
  } guards[] = {{"guard1_3", 1.3, 0},
                {"guard1_6", 1.6, 0},
                {"guard2_0", 2.0, 0},
                {"guard2_0_spares128", 2.0, 128}};
  for (const auto& g : guards) {
    cases.push_back({g.name, [g](VrlConfig& c) {
                       c.retention_guardband = g.guard;
                       c.spare_rows = g.spares;
                     }});
  }
  // ablation_tau_partial, at both counter widths of the sweep grid.
  const struct {
    const char* name;
    double target;
  } targets[] = {{"t0_88", 0.88}, {"t0_90", 0.90}, {"t0_92", 0.92},
                 {"t0_95", 0.95}, {"t0_97", 0.97}, {"t0_99", 0.99}};
  for (const std::size_t nbits : {1u, 2u}) {
    for (const auto& t : targets) {
      cases.push_back({std::string(t.name) + "_nbits" + std::to_string(nbits),
                       [nbits, t](VrlConfig& c) {
                         c.nbits = nbits;
                         c.spec.partial_target = t.target;
                       }});
    }
  }
  // ablation_technology.
  for (const auto& node : AllNodes()) {
    cases.push_back({"node" + node.name, [node](VrlConfig& c) {
                       c.tech = node.params;
                     }});
  }
  // design_space: every point of the default sweep grid.
  const auto grid = DefaultGrid();
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const SweepPoint point = grid[i];
    cases.push_back({"grid" + std::to_string(i), [point](VrlConfig& c) {
                       c.nbits = point.nbits;
                       c.spec.partial_target = point.partial_target;
                       c.retention_guardband = point.retention_guardband;
                       c.subarrays = point.subarrays;
                     }});
  }
  return cases;
}

class MprsfPlanTest : public ::testing::TestWithParam<PlanCase> {};

TEST_P(MprsfPlanTest, BisectionMatchesPerRowModel) {
  VrlConfig config;
  config.banks = 1;
  GetParam().configure(config);
  const VrlSystem system(config);
  const retention::MprsfCalculator calc(system.refresh_model(),
                                        system.PartialTimings().tau_post_s);
  const std::vector<double> planned = PlanningRetention(system);
  EXPECT_EQ(system.row_mprsf(),
            PerRowMprsf(calc, planned, system.binning(), config.MprsfCap()));

  std::size_t evaluations = 0;
  EXPECT_EQ(calc.ComputeRowMprsf(retention::RetentionProfile(planned),
                                 system.binning(), config.MprsfCap(),
                                 &evaluations),
            system.row_mprsf());
  // seed42 is the default configuration; these cases take 35-72.
  RecordProperty("evaluations", static_cast<int>(evaluations));
  EXPECT_LE(evaluations, 128u);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, MprsfPlanTest, ::testing::ValuesIn(PlanCases()),
    [](const ::testing::TestParamInfo<PlanCase>& info) {
      return info.param.name;
    });

TEST(MprsfPlan, RetentionProfilerDefaultsMatchPerRowModel) {
  // examples/retention_profiler: 8192 rows of 32 cells, seed 42, cap 3.
  Rng rng(42);
  const retention::RetentionDistribution dist;
  const auto profile =
      retention::RetentionProfile::Generate(dist, 8192, 32, rng);
  const auto bins =
      retention::BinRows(profile, retention::StandardBinPeriods());
  TechnologyParams tech;
  tech.rows = 8192;
  tech.columns = 32;
  const model::RefreshModel model(tech);
  const retention::MprsfCalculator calc(
      model, model.PartialRefreshTimings().tau_post_s);
  EXPECT_EQ(calc.ComputeRowMprsf(profile, bins, 3),
            PerRowMprsf(calc, profile.row_retention(), bins, 3));
}

}  // namespace
}  // namespace vrl::core
