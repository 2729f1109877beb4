// Tests for the extension modules: technology-node presets, SPICE deck
// export, the VrlConfig file format, and spare-row remapping.

#include <gtest/gtest.h>

#include <sstream>

#include "circuit/dram_circuits.hpp"
#include "circuit/spice_export.hpp"
#include "common/error.hpp"
#include "common/nodes.hpp"
#include "core/config_io.hpp"
#include "core/integrity.hpp"
#include "core/vrl_system.hpp"
#include "model/refresh_model.hpp"
#include "retention/distribution.hpp"
#include "retention/profiler.hpp"

namespace vrl {
namespace {

// ---------------------------------------------------------------------------
// Technology nodes
// ---------------------------------------------------------------------------

TEST(Nodes, AllPresetsValidate) {
  for (const auto& node : AllNodes()) {
    EXPECT_NO_THROW(node.params.Validate()) << node.name;
  }
}

TEST(Nodes, LookupByName) {
  EXPECT_EQ(NodeByName("65nm").name, "65nm");
  EXPECT_DOUBLE_EQ(NodeByName("45nm").params.vdd, 1.0);
  EXPECT_THROW(NodeByName("180nm"), ConfigError);
}

TEST(Nodes, SupplyVoltageScalesDown) {
  EXPECT_GT(Node90nm().params.vdd, Node65nm().params.vdd);
  EXPECT_GT(Node65nm().params.vdd, Node45nm().params.vdd);
}

TEST(Nodes, ModelWorksAtEveryNode) {
  for (const auto& node : AllNodes()) {
    const model::RefreshModel m(node.params);
    const auto full = m.FullRefreshTimings();
    const auto partial = m.PartialRefreshTimings();
    EXPECT_LT(partial.trfc(), full.trfc()) << node.name;
    // The restore-tail structure survives scaling (paper §4): the ratio
    // stays in a narrow band around the paper's 0.58.
    const double ratio = static_cast<double>(partial.trfc()) /
                         static_cast<double>(full.trfc());
    EXPECT_GT(ratio, 0.5) << node.name;
    EXPECT_LT(ratio, 0.7) << node.name;
  }
}

TEST(Nodes, SmallerNodesAreFaster) {
  const model::RefreshModel m90(Node90nm().params);
  const model::RefreshModel m45(Node45nm().params);
  EXPECT_LT(m45.FullRefreshTimings().trfc(), m90.FullRefreshTimings().trfc());
}

// ---------------------------------------------------------------------------
// SPICE deck export
// ---------------------------------------------------------------------------

TEST(SpiceExport, EmitsAllDeviceClasses) {
  const TechnologyParams tech;
  auto eq = circuit::BuildEqualizationCircuit(tech, 0.0);
  std::ostringstream os;
  circuit::WriteSpiceDeck(eq.netlist, circuit::SpiceExportOptions{}, os);
  const std::string deck = os.str();
  EXPECT_NE(deck.find("R1 "), std::string::npos);
  EXPECT_NE(deck.find("C1 "), std::string::npos);
  EXPECT_NE(deck.find("V1 "), std::string::npos);
  EXPECT_NE(deck.find("M1 "), std::string::npos);
  EXPECT_NE(deck.find(".model NMOD1 NMOS LEVEL=1"), std::string::npos);
  EXPECT_NE(deck.find(".tran "), std::string::npos);
  EXPECT_NE(deck.find(".end"), std::string::npos);
}

TEST(SpiceExport, GroundPrintsAsZero) {
  circuit::Netlist netlist;
  netlist.AddResistor(netlist.Node("a"), circuit::kGround, 100.0);
  std::ostringstream os;
  circuit::WriteSpiceDeck(netlist, circuit::SpiceExportOptions{}, os);
  EXPECT_NE(os.str().find("R1 a 0 100"), std::string::npos);
}

TEST(SpiceExport, PwlSourcesCarryBreakpoints) {
  circuit::Netlist netlist;
  const auto node = netlist.Node("sig");
  netlist.AddVpwl(node, circuit::kGround, {{0.0, 0.0}, {1e-9, 1.2}});
  netlist.AddResistor(node, circuit::kGround, 1e3);
  std::ostringstream os;
  circuit::WriteSpiceDeck(netlist, circuit::SpiceExportOptions{}, os);
  EXPECT_NE(os.str().find("PWL(0 0 1e-09 1.2)"), std::string::npos);
}

TEST(SpiceExport, PmosModelHasNegativeVto) {
  circuit::Netlist netlist;
  const auto a = netlist.Node("a");
  netlist.AddMosfet(circuit::MosType::kPmos, a, a, circuit::kGround,
                    {0.4, 1e-3, 0.0});
  std::ostringstream os;
  circuit::WriteSpiceDeck(netlist, circuit::SpiceExportOptions{}, os);
  EXPECT_NE(os.str().find("PMOS LEVEL=1 VTO=-0.4"), std::string::npos);
}

TEST(SpiceExport, InitialConditionsEmitted) {
  circuit::Netlist netlist;
  const auto a = netlist.Node("cell");
  netlist.AddCapacitor(a, circuit::kGround, 24e-15);
  netlist.SetInitialCondition(a, 1.2);
  std::ostringstream os;
  circuit::WriteSpiceDeck(netlist, circuit::SpiceExportOptions{}, os);
  EXPECT_NE(os.str().find(".ic V(cell)=1.2"), std::string::npos);
}

TEST(SpiceExport, RejectsBadOptions) {
  circuit::Netlist netlist;
  netlist.AddResistor(netlist.Node("a"), circuit::kGround, 1.0);
  circuit::SpiceExportOptions options;
  options.t_stop_s = 0.0;
  std::ostringstream os;
  EXPECT_THROW(circuit::WriteSpiceDeck(netlist, options, os), ConfigError);
}

// ---------------------------------------------------------------------------
// VrlConfig file format
// ---------------------------------------------------------------------------

TEST(ConfigIo, ParsesAllKeys) {
  std::istringstream is(
      "# comment\n"
      "banks = 4\n"
      "nbits = 3\n"
      "seed = 99\n"
      "spare_rows = 64\n"
      "retention_guardband = 1.5\n"
      "scheduler = fr-fcfs\n"
      "node = 65nm\n"
      "rows = 4096\n"
      "columns = 64\n"
      "partial_target = 0.93\n"
      "compounding = 5.0\n");
  const auto config = core::ParseVrlConfig(is);
  EXPECT_EQ(config.banks, 4u);
  EXPECT_EQ(config.nbits, 3u);
  EXPECT_EQ(config.seed, 99u);
  EXPECT_EQ(config.spare_rows, 64u);
  EXPECT_DOUBLE_EQ(config.retention_guardband, 1.5);
  EXPECT_EQ(config.scheduler, dram::SchedulerKind::kFrFcfs);
  EXPECT_DOUBLE_EQ(config.tech.vdd, 1.1);  // from the 65nm node
  EXPECT_EQ(config.tech.rows, 4096u);      // overridden after node
  EXPECT_EQ(config.tech.columns, 64u);
  EXPECT_DOUBLE_EQ(config.spec.partial_target, 0.93);
  EXPECT_DOUBLE_EQ(config.spec.partial_deficit_compounding, 5.0);
}

TEST(ConfigIo, EmptyStreamGivesDefaults) {
  std::istringstream is("");
  const auto config = core::ParseVrlConfig(is);
  EXPECT_EQ(config.banks, core::VrlConfig{}.banks);
  EXPECT_EQ(config.nbits, core::VrlConfig{}.nbits);
}

TEST(ConfigIo, RejectsUnknownKey) {
  std::istringstream is("bankz = 4\n");
  EXPECT_THROW(core::ParseVrlConfig(is), ParseError);
}

TEST(ConfigIo, RejectsMalformedLines) {
  std::istringstream no_eq("banks 4\n");
  EXPECT_THROW(core::ParseVrlConfig(no_eq), ParseError);
  std::istringstream bad_value("banks = four\n");
  EXPECT_THROW(core::ParseVrlConfig(bad_value), ParseError);
  std::istringstream bad_sched("scheduler = random\n");
  EXPECT_THROW(core::ParseVrlConfig(bad_sched), ParseError);
}

TEST(ConfigIo, RejectsInvalidResult) {
  std::istringstream is("nbits = 12\n");
  EXPECT_THROW(core::ParseVrlConfig(is), ConfigError);
}

TEST(ConfigIo, ParsesPagePolicy) {
  std::istringstream open_is("page_policy = open\n");
  EXPECT_EQ(core::ParseVrlConfig(open_is).page_policy,
            dram::RowBufferPolicy::kOpenPage);
  std::istringstream closed_is("page_policy = closed\n");
  EXPECT_EQ(core::ParseVrlConfig(closed_is).page_policy,
            dram::RowBufferPolicy::kClosedPage);
  std::istringstream bad("page_policy = half-open\n");
  EXPECT_THROW(core::ParseVrlConfig(bad), ParseError);
}

TEST(ConfigIo, RoundTripsThroughWrite) {
  core::VrlConfig config;
  config.banks = 2;
  config.nbits = 3;
  config.spare_rows = 32;
  config.retention_guardband = 1.25;
  config.scheduler = dram::SchedulerKind::kFrFcfs;
  std::ostringstream os;
  core::WriteVrlConfig(config, os);
  std::istringstream is(os.str());
  const auto back = core::ParseVrlConfig(is);
  EXPECT_EQ(back.banks, 2u);
  EXPECT_EQ(back.nbits, 3u);
  EXPECT_EQ(back.spare_rows, 32u);
  EXPECT_DOUBLE_EQ(back.retention_guardband, 1.25);
  EXPECT_EQ(back.scheduler, dram::SchedulerKind::kFrFcfs);
}

TEST(ConfigIo, MissingFileThrows) {
  EXPECT_THROW(core::LoadVrlConfigFile("/nonexistent/vrl.conf"), ParseError);
}

// ---------------------------------------------------------------------------
// Spare-row remapping
// ---------------------------------------------------------------------------

TEST(SpareRows, RemappingClearsClampedRows) {
  core::VrlConfig config;
  config.banks = 1;
  config.retention_guardband = 2.0;

  const core::VrlSystem without(config);
  ASSERT_GT(without.guardband_clamped_rows(), 0u);

  config.spare_rows = 256;
  const core::VrlSystem with(config);
  EXPECT_EQ(with.guardband_clamped_rows(), 0u);
  EXPECT_EQ(with.remapped_rows(), without.guardband_clamped_rows());
}

TEST(SpareRows, RemappingOnlyStrengthensRows) {
  core::VrlConfig config;
  config.banks = 1;
  config.retention_guardband = 2.0;
  const core::VrlSystem without(config);
  config.spare_rows = 256;
  const core::VrlSystem with(config);
  for (std::size_t r = 0; r < with.profile().rows(); ++r) {
    EXPECT_GE(with.profile().RowRetention(r),
              without.profile().RowRetention(r) - 1e-12);
  }
}

TEST(SpareRows, NoGuardbandNeedsNoRemap) {
  core::VrlConfig config;
  config.banks = 1;
  config.spare_rows = 256;
  const core::VrlSystem system(config);
  EXPECT_EQ(system.remapped_rows(), 0u);
}

TEST(SpareRows, TooFewSparesRemapsWeakestFirst) {
  core::VrlConfig config;
  config.banks = 1;
  config.retention_guardband = 2.0;
  const core::VrlSystem without(config);
  config.spare_rows = 5;
  const core::VrlSystem with(config);
  EXPECT_LE(with.remapped_rows(), 5u);
  EXPECT_EQ(with.guardband_clamped_rows() + with.remapped_rows(),
            without.guardband_clamped_rows());
}

TEST(SpareRows, GuardedAndRemappedSystemIsSafeAtRatedTemperature) {
  core::VrlConfig config;
  config.banks = 1;
  config.retention_guardband = 2.0;
  config.spare_rows = 256;
  const core::VrlSystem system(config);
  // Rated to 55C; check inside the rating.
  const core::IntegrityChecker checker(system, 0.55);  // scale > 1/guard
  EXPECT_FALSE(checker.Check("VRL", 8).DataLost());
}

// ---------------------------------------------------------------------------
// External-profile pipeline: measure -> plan -> verify
// ---------------------------------------------------------------------------

TEST(ExternalProfile, SystemAcceptsMeasuredProfile) {
  core::VrlConfig config;
  config.banks = 1;

  // A true chip, profiled by the simulated profiler.
  Rng rng(99);
  const retention::RetentionDistribution dist(config.retention);
  const auto truth = retention::RetentionProfile::Generate(
      dist, config.tech.rows, config.tech.columns, rng);
  const auto measured = retention::MeasureProfile(
      truth, {}, retention::VrtParams{}, retention::StandardCampaign(), rng);

  // Plan from the *measured* profile; replay against the *true* physics.
  const core::VrlSystem system(config, measured);
  EXPECT_EQ(system.profile().rows(), config.tech.rows);
  const core::IntegrityChecker checker(system, truth);
  const auto report = checker.Check("VRL", 8);
  // Measurement is conservative (grid rounds down), so planning from it is
  // safe against the truth.
  EXPECT_FALSE(report.DataLost());
}

TEST(ExternalProfile, RejectsWrongSize) {
  core::VrlConfig config;
  config.banks = 1;
  const retention::RetentionProfile tiny({1.0, 2.0});
  EXPECT_THROW(core::VrlSystem(config, tiny), ConfigError);
}

TEST(ExternalProfile, InternalAndExternalAgreeOnSameProfile) {
  core::VrlConfig config;
  config.banks = 1;
  const core::VrlSystem internal(config);
  const core::VrlSystem external(config, internal.profile());
  EXPECT_EQ(internal.row_mprsf(), external.row_mprsf());
  EXPECT_EQ(internal.binning().rows_per_bin, external.binning().rows_per_bin);
}

}  // namespace
}  // namespace vrl
