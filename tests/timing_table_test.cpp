// Unit tests of the DRAM hierarchy layer: Topology address arithmetic, the
// named TimingTable presets, the active ConstraintEngine floors, and the
// passive TimingAuditor — including that the auditor actually *detects*
// each class of violation when fed an illegal stream (a detector that never
// fires would make the conformance CI job vacuous).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "dram/auditor.hpp"
#include "dram/timing_table.hpp"
#include "dram/topology.hpp"

namespace vrl::dram {
namespace {

// ---------------------------------------------------------------------------
// Topology
// ---------------------------------------------------------------------------

TEST(Topology, CountsAreLevelProducts) {
  const Topology topo{2, 2, 4, 4};
  EXPECT_EQ(topo.TotalBanks(), 64u);
  EXPECT_EQ(topo.BanksPerRank(), 16u);
  EXPECT_EQ(topo.BanksPerChannel(), 32u);
  EXPECT_EQ(topo.TotalRanks(), 4u);
}

TEST(Topology, DegenerateMeansSingleChannelRankGroup) {
  EXPECT_TRUE((Topology{1, 1, 1, 8}.IsDegenerate()));
  EXPECT_TRUE((Topology{1, 1, 1, 1}.IsDegenerate()));
  EXPECT_FALSE((Topology{1, 2, 1, 8}.IsDegenerate()));
  EXPECT_FALSE((Topology{2, 1, 1, 8}.IsDegenerate()));
  EXPECT_FALSE((Topology{1, 1, 4, 4}.IsDegenerate()));
}

TEST(Topology, ValidateRejectsAnyZeroLevel) {
  EXPECT_THROW((Topology{0, 1, 1, 1}.Validate()), ConfigError);
  EXPECT_THROW((Topology{1, 0, 1, 1}.Validate()), ConfigError);
  EXPECT_THROW((Topology{1, 1, 0, 1}.Validate()), ConfigError);
  EXPECT_THROW((Topology{1, 1, 1, 0}.Validate()), ConfigError);
  EXPECT_NO_THROW((Topology{1, 1, 1, 1}.Validate()));
}

TEST(Topology, DecomposeFlattenRoundTripsEveryBank) {
  const Topology topo{2, 2, 4, 4};
  for (std::size_t flat = 0; flat < topo.TotalBanks(); ++flat) {
    const BankAddress addr = DecomposeBank(topo, flat);
    EXPECT_LT(addr.channel, topo.channels);
    EXPECT_LT(addr.rank, topo.ranks_per_channel);
    EXPECT_LT(addr.bank_group, topo.bank_groups_per_rank);
    EXPECT_LT(addr.bank, topo.banks_per_group);
    EXPECT_EQ(FlattenBank(topo, addr), flat);
  }
}

TEST(Topology, DecompositionIsChannelMajor) {
  const Topology topo{2, 2, 2, 2};
  EXPECT_EQ(DecomposeBank(topo, 0), (BankAddress{0, 0, 0, 0}));
  EXPECT_EQ(DecomposeBank(topo, 1), (BankAddress{0, 0, 0, 1}));
  EXPECT_EQ(DecomposeBank(topo, 2), (BankAddress{0, 0, 1, 0}));
  EXPECT_EQ(DecomposeBank(topo, 4), (BankAddress{0, 1, 0, 0}));
  EXPECT_EQ(DecomposeBank(topo, 8), (BankAddress{1, 0, 0, 0}));
  EXPECT_EQ(DecomposeBank(topo, 15), (BankAddress{1, 1, 1, 1}));
}

TEST(Topology, OutOfRangeAddressesThrow) {
  const Topology topo{1, 2, 1, 8};
  EXPECT_THROW(DecomposeBank(topo, topo.TotalBanks()), ConfigError);
  EXPECT_THROW(FlattenBank(topo, BankAddress{1, 0, 0, 0}), ConfigError);
  EXPECT_THROW(FlattenBank(topo, BankAddress{0, 2, 0, 0}), ConfigError);
  EXPECT_THROW(FlattenBank(topo, BankAddress{0, 0, 1, 0}), ConfigError);
  EXPECT_THROW(FlattenBank(topo, BankAddress{0, 0, 0, 8}), ConfigError);
}

// ---------------------------------------------------------------------------
// TimingTable presets
// ---------------------------------------------------------------------------

TEST(TimingPresets, NamesRoundTrip) {
  for (const TimingPreset preset : kAllTimingPresets) {
    EXPECT_EQ(PresetFromName(PresetName(preset)), preset);
  }
}

TEST(TimingPresets, ParsingIsCaseAndSeparatorInsensitive) {
  EXPECT_EQ(PresetFromName("ddr4-2400"), TimingPreset::kDdr4_2400);
  EXPECT_EQ(PresetFromName("DDR3_1600"), TimingPreset::kDdr3_1600);
  EXPECT_EQ(PresetFromName("lpddr43200"), TimingPreset::kLpddr4_3200);
  EXPECT_EQ(PresetFromName("flat"), TimingPreset::kSingleBankEquivalent);
  EXPECT_EQ(PresetFromName("single-bank-equivalent"),
            TimingPreset::kSingleBankEquivalent);
}

TEST(TimingPresets, UnknownNameThrowsWithCandidates) {
  try {
    PresetFromName("ddr5");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("unknown timing preset"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("DDR4_2400"), std::string::npos);
  }
}

TEST(TimingPresets, SingleBankEquivalentIsTheFlatModel) {
  const TimingTable table = MakeTimingTable(TimingPreset::kSingleBankEquivalent, 6);
  EXPECT_EQ(table.topology, (Topology{1, 1, 1, 6}));
  EXPECT_FALSE(table.IsHierarchical());
  EXPECT_EQ(table.t_rrd_s, 0u);
  EXPECT_EQ(table.t_faw, 0u);
  EXPECT_EQ(table.t_ccd_l, 0u);
  EXPECT_EQ(table.t_rtrs, 0u);
  EXPECT_FALSE(table.per_channel_bus);
  EXPECT_THROW(MakeTimingTable(TimingPreset::kSingleBankEquivalent, 0),
               ConfigError);
}

TEST(TimingPresets, HardwarePresetsAreHierarchicalAndValid) {
  for (const TimingPreset preset :
       {TimingPreset::kDdr3_1600, TimingPreset::kDdr4_2400,
        TimingPreset::kLpddr4_3200}) {
    const TimingTable table = MakeTimingTable(preset);
    EXPECT_TRUE(table.IsHierarchical()) << PresetName(preset);
    EXPECT_TRUE(table.per_channel_bus) << PresetName(preset);
    EXPECT_NO_THROW(table.Validate()) << PresetName(preset);
    // The per-bank core timings stay the paper's for every preset.
    EXPECT_EQ(table.core.t_rcd, TimingParams{}.t_rcd) << PresetName(preset);
    EXPECT_EQ(table.core.t_refi, TimingParams{}.t_refi) << PresetName(preset);
  }
  EXPECT_EQ(MakeTimingTable(TimingPreset::kDdr3_1600).topology.TotalBanks(),
            16u);
  EXPECT_EQ(MakeTimingTable(TimingPreset::kDdr4_2400).topology.TotalBanks(),
            32u);
  EXPECT_EQ(MakeTimingTable(TimingPreset::kLpddr4_3200).topology.TotalBanks(),
            16u);
}

TEST(TimingPresets, Ddr4ValuesPinned) {
  // JESD79-4B-derived values at the 2.5 ns controller clock — pinned so a
  // silent preset edit cannot slip past review (docs/TOPOLOGY.md).
  const TimingTable t = MakeTimingTable(TimingPreset::kDdr4_2400);
  EXPECT_EQ(t.topology, (Topology{1, 2, 4, 4}));
  EXPECT_EQ(t.t_rrd_s, 3u);
  EXPECT_EQ(t.t_rrd_l, 4u);
  EXPECT_EQ(t.t_faw, 12u);
  EXPECT_EQ(t.t_ccd_s, 2u);
  EXPECT_EQ(t.t_ccd_l, 3u);
  EXPECT_EQ(t.t_rtrs, 2u);
  EXPECT_EQ(t.t_rfc, 140u);
}

TEST(TimingTable, ValidateRejectsInconsistentWindows) {
  TimingTable rrd = MakeTimingTable(TimingPreset::kDdr4_2400);
  rrd.t_rrd_l = rrd.t_rrd_s - 1;
  EXPECT_THROW(rrd.Validate(), ConfigError);

  TimingTable ccd = MakeTimingTable(TimingPreset::kDdr4_2400);
  ccd.t_ccd_l = ccd.t_ccd_s - 1;
  EXPECT_THROW(ccd.Validate(), ConfigError);

  TimingTable faw = MakeTimingTable(TimingPreset::kDdr4_2400);
  faw.t_faw = faw.t_rrd_l - 1;
  EXPECT_THROW(faw.Validate(), ConfigError);
}

TEST(TimingTable, EachKnobAloneMakesItHierarchical) {
  TimingTable table = MakeTimingTable(TimingPreset::kSingleBankEquivalent, 4);
  ASSERT_FALSE(table.IsHierarchical());
  for (Cycles TimingTable::*knob :
       {&TimingTable::t_rrd_s, &TimingTable::t_rrd_l, &TimingTable::t_faw,
        &TimingTable::t_ccd_s, &TimingTable::t_ccd_l, &TimingTable::t_rtrs}) {
    TimingTable probe = table;
    probe.*knob = 5;
    EXPECT_TRUE(probe.IsHierarchical());
  }
  TimingTable bus = table;
  bus.per_channel_bus = true;
  EXPECT_TRUE(bus.IsHierarchical());
  TimingTable topo = table;
  topo.topology = {1, 2, 1, 2};
  EXPECT_TRUE(topo.IsHierarchical());
}

// ---------------------------------------------------------------------------
// ConstraintEngine
// ---------------------------------------------------------------------------

TEST(ConstraintEngine, DegenerateTableIsIdentity) {
  const TimingTable table =
      MakeTimingTable(TimingPreset::kSingleBankEquivalent, 4);
  ConstraintEngine engine(table);
  const BankAddress a = DecomposeBank(table.topology, 1);
  engine.RecordActivate(a, 100);
  engine.RecordColumn(a, 110);
  engine.RecordBurst(a, 120, 124);
  EXPECT_EQ(engine.EarliestActivate(a, 101), 101u);
  EXPECT_EQ(engine.EarliestColumn(a, 111), 111u);
  EXPECT_EQ(engine.EarliestBurst(a, 121), 121u);
  EXPECT_EQ(engine.stats().TotalStalls(), 0u);
}

TEST(ConstraintEngine, TrrdFloorsSameGroupLongerThanCross) {
  const TimingTable table = MakeTimingTable(TimingPreset::kDdr4_2400);
  ConstraintEngine engine(table);
  const BankAddress g0{0, 0, 0, 0};
  const BankAddress g0b{0, 0, 0, 1};
  const BankAddress g1{0, 0, 1, 0};
  engine.RecordActivate(g0, 100);
  // Same bank group: tRRD_L = 4; different group: tRRD_S = 3.
  EXPECT_EQ(engine.EarliestActivate(g0b, 100), 104u);
  EXPECT_EQ(engine.EarliestActivate(g1, 100), 103u);
  EXPECT_EQ(engine.stats().trrd_stalls, 2u);
  EXPECT_EQ(engine.stats().trrd_stall_cycles, 4u + 3u);
  // Already past the window: no floor, no stall.
  EXPECT_EQ(engine.EarliestActivate(g0b, 104), 104u);
  EXPECT_EQ(engine.stats().trrd_stalls, 2u);
}

TEST(ConstraintEngine, OtherRankIsUnconstrained) {
  const TimingTable table = MakeTimingTable(TimingPreset::kDdr4_2400);
  ConstraintEngine engine(table);
  engine.RecordActivate(BankAddress{0, 0, 0, 0}, 100);
  EXPECT_EQ(engine.EarliestActivate(BankAddress{0, 1, 0, 0}, 100), 100u);
}

TEST(ConstraintEngine, TfawFloorsTheFifthActivate) {
  // DDR3: tRRD = 3, tFAW = 16, one bank group of 8 per rank.
  const TimingTable table = MakeTimingTable(TimingPreset::kDdr3_1600);
  ConstraintEngine engine(table);
  const auto bank = [](std::size_t b) { return BankAddress{0, 0, 0, b}; };
  for (std::size_t i = 0; i < 4; ++i) {
    engine.RecordActivate(bank(i), static_cast<Cycles>(3 * i));
  }
  // tRRD alone would allow cycle 12, but four ACTs at 0/3/6/9 occupy the
  // window until the first leaves at 0 + tFAW = 16.
  EXPECT_EQ(engine.EarliestActivate(bank(4), 12), 16u);
  EXPECT_EQ(engine.stats().tfaw_stalls, 1u);
  EXPECT_EQ(engine.stats().tfaw_stall_cycles, 4u);
}

TEST(ConstraintEngine, TccdFloorsColumnCommands) {
  const TimingTable table = MakeTimingTable(TimingPreset::kDdr4_2400);
  ConstraintEngine engine(table);
  engine.RecordColumn(BankAddress{0, 0, 0, 0}, 50);
  // Same group: tCCD_L = 3; different group: tCCD_S = 2.
  EXPECT_EQ(engine.EarliestColumn(BankAddress{0, 0, 0, 1}, 50), 53u);
  EXPECT_EQ(engine.EarliestColumn(BankAddress{0, 0, 1, 0}, 50), 52u);
  EXPECT_EQ(engine.stats().tccd_stalls, 2u);
}

TEST(ConstraintEngine, SharedBusSerializesBurstsAndChargesRtrs) {
  const TimingTable table = MakeTimingTable(TimingPreset::kDdr3_1600);
  ConstraintEngine engine(table);
  engine.RecordBurst(BankAddress{0, 0, 0, 0}, 100, 104);
  // Same rank: wait for the bus. Other rank: tRTRS = 2 on top.
  EXPECT_EQ(engine.EarliestBurst(BankAddress{0, 0, 0, 1}, 100), 104u);
  EXPECT_EQ(engine.EarliestBurst(BankAddress{0, 1, 0, 0}, 100), 106u);
  EXPECT_EQ(engine.stats().bus_stalls, 1u);
  EXPECT_EQ(engine.stats().trtrs_stalls, 1u);
  // A burst on the other channel would be independent — LPDDR4 has two.
  const TimingTable lp = MakeTimingTable(TimingPreset::kLpddr4_3200);
  ConstraintEngine lp_engine(lp);
  lp_engine.RecordBurst(BankAddress{0, 0, 0, 0}, 100, 104);
  EXPECT_EQ(lp_engine.EarliestBurst(BankAddress{1, 0, 0, 0}, 100), 100u);
}

TEST(ConstraintEngine, PerBankBusNeverFloorsBursts) {
  TimingTable table = MakeTimingTable(TimingPreset::kDdr3_1600);
  table.per_channel_bus = false;
  ConstraintEngine engine(table);
  engine.RecordBurst(BankAddress{0, 0, 0, 0}, 100, 104);
  EXPECT_EQ(engine.EarliestBurst(BankAddress{0, 0, 0, 1}, 100), 100u);
  EXPECT_EQ(engine.stats().bus_stalls, 0u);
}

TEST(ConstraintEngine, FloorsStayConservativeUnderOutOfOrderRecording) {
  // The controller interleaves banks by decision instant, which only
  // approximates issue order — a later Record* call may carry an earlier
  // cycle.  The engine must keep the *latest* ACT per group, not the last
  // recorded one.
  const TimingTable table = MakeTimingTable(TimingPreset::kDdr4_2400);
  ConstraintEngine engine(table);
  engine.RecordActivate(BankAddress{0, 0, 0, 0}, 100);
  engine.RecordActivate(BankAddress{0, 0, 0, 1}, 90);  // out of order
  EXPECT_EQ(engine.EarliestActivate(BankAddress{0, 0, 0, 2}, 100), 104u);
  engine.RecordColumn(BankAddress{0, 0, 0, 0}, 200);
  engine.RecordColumn(BankAddress{0, 0, 0, 1}, 190);
  EXPECT_EQ(engine.EarliestColumn(BankAddress{0, 0, 0, 2}, 200), 203u);
}

TEST(ConstraintEngine, TracksPerRankAndPerChannelActivity) {
  const TimingTable table = MakeTimingTable(TimingPreset::kDdr4_2400);
  ConstraintEngine engine(table);
  engine.RecordActivate(BankAddress{0, 0, 0, 0}, 0);
  engine.RecordActivate(BankAddress{0, 1, 0, 0}, 50);
  engine.RecordActivate(BankAddress{0, 1, 1, 0}, 100);
  engine.RecordColumn(BankAddress{0, 1, 1, 0}, 110);
  engine.RecordBurst(BankAddress{0, 1, 1, 0}, 120, 124);
  const HierarchyActivity& activity = engine.activity();
  ASSERT_EQ(activity.rank_activations.size(), 2u);
  EXPECT_EQ(activity.rank_activations[0], 1u);
  EXPECT_EQ(activity.rank_activations[1], 2u);
  EXPECT_EQ(activity.rank_columns[1], 1u);
  ASSERT_EQ(activity.channel_bursts.size(), 1u);
  EXPECT_EQ(activity.channel_bursts[0], 1u);
}

// ---------------------------------------------------------------------------
// TimingAuditor
// ---------------------------------------------------------------------------

TEST(Auditor, CommandMnemonics) {
  EXPECT_EQ(CommandName(CommandKind::kActivate), "ACT");
  EXPECT_EQ(CommandName(CommandKind::kRead), "RD");
  EXPECT_EQ(CommandName(CommandKind::kWrite), "WR");
  EXPECT_EQ(CommandName(CommandKind::kPrecharge), "PRE");
  EXPECT_EQ(CommandName(CommandKind::kRefresh), "REF");
}

/// One logged command on flat bank `bank` (FlattenBank order: DDR3_1600
/// is 2 ranks x 8 banks, DDR4_2400 2 ranks x 4 groups x 4 banks).
Command Cmd(Cycles at, CommandKind kind, std::uint32_t bank,
            std::uint32_t trfc = 0) {
  Command c;
  c.at = at;
  c.kind = kind;
  c.bank = bank;
  c.trfc = trfc;
  return c;
}

TEST(Auditor, LegalStreamAuditsClean) {
  // Core timings: tRCD 10, tRAS 28, tRP 10, tCAS 10, tBUS 4.
  const TimingAuditor auditor(MakeTimingTable(TimingPreset::kDdr3_1600));
  const std::uint32_t b0 = 0;
  const std::uint32_t b1 = 1;
  CommandLog log;
  log.Append(Cmd(0, CommandKind::kActivate, b0));
  log.Append(Cmd(10, CommandKind::kRead, b0));    // tRCD met; burst [20,24)
  log.Append(Cmd(4, CommandKind::kActivate, b1)); // tRRD 3 < 4: fine
  log.Append(Cmd(14, CommandKind::kRead, b1));    // tCCD 2; burst [24,28)
  log.Append(Cmd(28, CommandKind::kPrecharge, b0));  // tRAS exactly met
  log.Append(Cmd(38, CommandKind::kActivate, b0));   // tRP exactly met
  const AuditReport report = auditor.Audit(log);
  EXPECT_TRUE(report.clean()) << report.ToText("test");
  EXPECT_EQ(report.commands_checked, 6u);
}

TEST(Auditor, DetectsTrrdViolation) {
  const TimingAuditor auditor(MakeTimingTable(TimingPreset::kDdr3_1600));
  CommandLog log;
  log.Append(Cmd(0, CommandKind::kActivate, 0));
  log.Append(Cmd(1, CommandKind::kActivate, 1));
  const AuditReport report = auditor.Audit(log);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].rule, "tRRD_L");  // DDR3: one group
  EXPECT_EQ(report.violations[0].at, 1u);
}

TEST(Auditor, DistinguishesShortAndLongRrd) {
  const TimingAuditor auditor(MakeTimingTable(TimingPreset::kDdr4_2400));
  CommandLog log;
  log.Append(Cmd(0, CommandKind::kActivate, 0));
  log.Append(Cmd(3, CommandKind::kActivate, 1));
  // Same group at +3 violates tRRD_L = 4; a different group at +3 meets
  // tRRD_S = 3.
  log.Append(Cmd(6, CommandKind::kActivate, 4));
  const AuditReport report = auditor.Audit(log);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].rule, "tRRD_L");
  EXPECT_EQ(report.violations[0].addr, (BankAddress{0, 0, 0, 1}));
}

TEST(Auditor, DetectsFifthActivateInFawWindow) {
  // tRRD-legal spacing (3) but five ACTs inside tFAW = 16.
  const TimingAuditor auditor(MakeTimingTable(TimingPreset::kDdr3_1600));
  CommandLog log;
  for (std::size_t i = 0; i < 5; ++i) {
    log.Append(Cmd(static_cast<Cycles>(3 * i), CommandKind::kActivate,
                   static_cast<std::uint32_t>(i)));
  }
  const AuditReport report = auditor.Audit(log);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].rule, "tFAW");
  EXPECT_EQ(report.violations[0].at, 12u);
}

TEST(Auditor, DetectsTrcdAndTrasAndTrpViolations) {
  const TimingAuditor auditor(MakeTimingTable(TimingPreset::kDdr3_1600));
  const std::uint32_t b = 0;
  CommandLog log;
  log.Append(Cmd(0, CommandKind::kActivate, b));
  log.Append(Cmd(5, CommandKind::kRead, b));        // tRCD 10 violated
  log.Append(Cmd(20, CommandKind::kPrecharge, b));  // tRAS 28 violated
  log.Append(Cmd(25, CommandKind::kActivate, b));   // tRP 10 violated
  const AuditReport report = auditor.Audit(log);
  ASSERT_EQ(report.violations.size(), 3u);
  EXPECT_EQ(report.violations[0].rule, "tRCD");
  EXPECT_EQ(report.violations[1].rule, "tRAS");
  EXPECT_EQ(report.violations[2].rule, "tRP");
}

TEST(Auditor, DetectsWriteRecoveryViolation) {
  const TimingAuditor auditor(MakeTimingTable(TimingPreset::kDdr3_1600));
  const std::uint32_t b = 0;
  CommandLog log;
  log.Append(Cmd(0, CommandKind::kActivate, b));
  log.Append(Cmd(10, CommandKind::kWrite, b));  // burst [20, 24)
  // tRAS (28) is met but tWR needs 24 + 12 = 36.
  log.Append(Cmd(30, CommandKind::kPrecharge, b));
  const AuditReport report = auditor.Audit(log);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].rule, "tWR");
}

TEST(Auditor, DetectsBusOverlapAndRankTurnaround) {
  const TimingAuditor auditor(MakeTimingTable(TimingPreset::kDdr3_1600));
  CommandLog log;
  log.Append(Cmd(0, CommandKind::kActivate, 0));
  log.Append(Cmd(4, CommandKind::kActivate, 1));
  log.Append(Cmd(20, CommandKind::kRead, 0));
  // Burst [30,34); a second read at 22 bursts [32,36) — overlap.
  log.Append(Cmd(22, CommandKind::kRead, 1));
  const AuditReport overlap = auditor.Audit(log);
  ASSERT_EQ(overlap.violations.size(), 1u);
  EXPECT_EQ(overlap.violations[0].rule, "bus-overlap");

  CommandLog turnaround;
  turnaround.Append(Cmd(0, CommandKind::kActivate, 0));
  turnaround.Append(Cmd(0, CommandKind::kActivate, 8));
  turnaround.Append(Cmd(20, CommandKind::kRead, 0));
  // Other rank's burst [35,39) starts 1 cycle after [30,34) ends; tRTRS = 2.
  turnaround.Append(Cmd(25, CommandKind::kRead, 8));
  const AuditReport rtrs = auditor.Audit(turnaround);
  ASSERT_EQ(rtrs.violations.size(), 1u);
  EXPECT_EQ(rtrs.violations[0].rule, "tRTRS");
}

TEST(Auditor, DetectsCommandDuringRefresh) {
  const TimingAuditor auditor(MakeTimingTable(TimingPreset::kDdr3_1600));
  const std::uint32_t b = 0;
  CommandLog log;
  log.Append(Cmd(100, CommandKind::kRefresh, b, /*trfc=*/50));
  log.Append(Cmd(120, CommandKind::kActivate, b));  // inside [100, 150)
  const AuditReport report = auditor.Audit(log);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].rule, "refresh-occupancy");

  CommandLog zero;
  zero.Append(Cmd(0, CommandKind::kRefresh, b, /*trfc=*/0));
  const AuditReport zero_report = auditor.Audit(zero);
  ASSERT_EQ(zero_report.violations.size(), 1u);
  EXPECT_EQ(zero_report.violations[0].rule, "refresh-zero-trfc");
}

TEST(Auditor, SubarraysAuditIndependently) {
  // A refresh holds one subarray; the other subarray of the same bank stays
  // usable (SALP).
  const TimingAuditor auditor(MakeTimingTable(TimingPreset::kDdr3_1600));
  const std::uint32_t b = 0;
  Command ref = Cmd(100, CommandKind::kRefresh, b, /*trfc=*/50);
  ref.subarray = 0;
  Command act = Cmd(120, CommandKind::kActivate, b);
  act.subarray = 1;
  CommandLog log;
  log.Append(ref);
  log.Append(act);
  EXPECT_TRUE(auditor.Audit(log).clean());
}

TEST(Auditor, SortsAnUnorderedLogBeforeReplay) {
  const TimingAuditor auditor(MakeTimingTable(TimingPreset::kDdr3_1600));
  const std::uint32_t b = 0;
  CommandLog log;  // appended in reverse cycle order
  log.Append(Cmd(38, CommandKind::kActivate, b));
  log.Append(Cmd(28, CommandKind::kPrecharge, b));
  log.Append(Cmd(10, CommandKind::kRead, b));
  log.Append(Cmd(0, CommandKind::kActivate, b));
  EXPECT_TRUE(auditor.Audit(log).clean());
}

TEST(Auditor, ReportTextIsPinned) {
  AuditReport report;
  report.commands_checked = 3;
  report.violations.push_back(
      {42, "tRRD_L", BankAddress{0, 1, 2, 3}, "need >= 44 (last ACT 40)"});
  EXPECT_EQ(report.ToText("DDR4_2400"),
            "# vrl timing audit v1\n"
            "# preset=DDR4_2400 commands=3 violations=1\n"
            "violation at=42 rule=tRRD_L ch=0 rk=1 bg=2 bk=3 "
            "need >= 44 (last ACT 40)\n"
            "# end\n");
  AuditReport clean;
  clean.commands_checked = 7;
  EXPECT_EQ(clean.ToText("flat"),
            "# vrl timing audit v1\n"
            "# preset=flat commands=7 violations=0\n"
            "# end\n");
}

TEST(Auditor, ViolationsAreCycleOrdered) {
  const TimingAuditor auditor(MakeTimingTable(TimingPreset::kDdr3_1600));
  CommandLog log;
  // Two independent violations logged out of order.
  log.Append(Cmd(50, CommandKind::kActivate, 2));
  log.Append(Cmd(51, CommandKind::kActivate, 3));
  log.Append(Cmd(0, CommandKind::kActivate, 0));
  log.Append(Cmd(1, CommandKind::kActivate, 1));
  const AuditReport report = auditor.Audit(log);
  ASSERT_EQ(report.violations.size(), 2u);
  EXPECT_LT(report.violations[0].at, report.violations[1].at);
}

TEST(Auditor, WriteAuditReportRoundTrips) {
  AuditReport report;
  report.commands_checked = 5;
  const std::string path = ::testing::TempDir() + "/vrl_audit_roundtrip.log";
  WriteAuditReport(report, "DDR3_1600", path);
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in);
  std::ostringstream content;
  content << in.rdbuf();
  EXPECT_EQ(content.str(), report.ToText("DDR3_1600"));
  std::remove(path.c_str());
  EXPECT_THROW(
      WriteAuditReport(report, "DDR3_1600", "/nonexistent-dir/audit.log"),
      ConfigError);
}

}  // namespace
}  // namespace vrl::dram
