#include "dram/timing_table.hpp"

#include "common/error.hpp"
#include "dram/policy_registry.hpp"

namespace vrl::dram {

void TimingTable::Validate() const {
  core.Validate();
  topology.Validate();
  if ((t_rrd_s != 0 || t_rrd_l != 0) && t_rrd_l < t_rrd_s) {
    throw ConfigError(
        "TimingTable: tRRD_L (same bank group) must cover tRRD_S");
  }
  if ((t_ccd_s != 0 || t_ccd_l != 0) && t_ccd_l < t_ccd_s) {
    throw ConfigError(
        "TimingTable: tCCD_L (same bank group) must cover tCCD_S");
  }
  if (t_faw != 0 && t_faw < t_rrd_l) {
    throw ConfigError(
        "TimingTable: tFAW shorter than tRRD can never bind");
  }
  if (t_rfc != 0 && t_rfc_pb > t_rfc) {
    throw ConfigError(
        "TimingTable: per-bank tRFCpb cannot exceed all-bank tRFC");
  }
}

namespace {

/// The one preset name table: the first row of a preset is its name, any
/// later row an accepted alias.
struct PresetNameRow {
  std::string_view name;
  TimingPreset preset;
};
constexpr PresetNameRow kPresetNames[] = {
    {"SingleBankEquivalent", TimingPreset::kSingleBankEquivalent},
    {"DDR3_1600", TimingPreset::kDdr3_1600},
    {"DDR4_2400", TimingPreset::kDdr4_2400},
    {"LPDDR4_3200", TimingPreset::kLpddr4_3200},
    {"flat", TimingPreset::kSingleBankEquivalent},
};

}  // namespace

std::string PresetName(TimingPreset preset) {
  for (const PresetNameRow& row : kPresetNames) {
    if (row.preset == preset) {
      return std::string(row.name);
    }
  }
  return "?";
}

TimingPreset PresetFromName(std::string_view name) {
  const std::string canon = CanonicalPolicyToken(name);
  std::string expected;
  for (const PresetNameRow& row : kPresetNames) {
    if (CanonicalPolicyToken(row.name) == canon) {
      return row.preset;
    }
    if (PresetName(row.preset) == row.name) {
      expected += (expected.empty() ? "" : ", ") + std::string(row.name);
    }
  }
  throw ConfigError("PresetFromName: unknown timing preset '" +
                    std::string(name) + "' (expected one of: " + expected +
                    ")");
}

TimingTable MakeTimingTable(TimingPreset preset, std::size_t banks) {
  // All values are controller cycles at the paper's 2.5 ns clock, the JEDEC
  // nanosecond minima rounded up (SecondsToCyclesCeil semantics); where the
  // 2.5 ns grid collapses a short/long pair, the long (same-bank-group)
  // value is rounded up one further cycle so the bank-group penalty
  // survives.  docs/TOPOLOGY.md tabulates the sources.
  TimingTable table;
  switch (preset) {
    case TimingPreset::kSingleBankEquivalent:
      if (banks == 0) {
        throw ConfigError(
            "MakeTimingTable: SingleBankEquivalent needs at least one bank");
      }
      // The degenerate hierarchy: today's flat model, byte-for-byte.
      table.topology = {1, 1, 1, banks};
      break;
    case TimingPreset::kDdr3_1600:
      // JESD79-3F: no bank groups; tRRD(2KB) = 7.5 ns, tFAW(2KB) = 40 ns,
      // tCCD = 4 nCK = 5 ns, tRFC(4Gb) = 260 ns.
      table.topology = {1, 2, 1, 8};
      table.t_rrd_s = 3;
      table.t_rrd_l = 3;
      table.t_faw = 16;
      table.t_ccd_s = 2;
      table.t_ccd_l = 2;
      table.t_rtrs = 2;
      table.t_rfc = 104;
      table.per_channel_bus = true;
      break;
    case TimingPreset::kDdr4_2400:
      // JESD79-4B: 4 bank groups; tRRD_S = 5.3 ns / tRRD_L = 6.4 ns (x8),
      // tFAW = 30 ns, tCCD_S = 4 nCK = 3.33 ns / tCCD_L = 6.4 ns,
      // tRFC1(8Gb) = 350 ns.
      table.topology = {1, 2, 4, 4};
      table.t_rrd_s = 3;
      table.t_rrd_l = 4;
      table.t_faw = 12;
      table.t_ccd_s = 2;
      table.t_ccd_l = 3;
      table.t_rtrs = 2;
      table.t_rfc = 140;
      table.per_channel_bus = true;
      break;
    case TimingPreset::kLpddr4_3200:
      // JESD209-4B: two independent half-width channels, single rank;
      // tRRD = 10 ns, tFAW = 40 ns, tCCD = 8 tCK = 5 ns, tRFCab(8Gb) =
      // 280 ns.  No second rank, so no turnaround.
      table.topology = {2, 1, 1, 8};
      table.t_rrd_s = 4;
      table.t_rrd_l = 4;
      table.t_faw = 16;
      table.t_ccd_s = 2;
      table.t_ccd_l = 2;
      table.t_rtrs = 0;
      table.t_rfc = 112;
      // JESD209-4B per-bank refresh: tRFCpb(8Gb) = 140 ns.  DDR3/DDR4 have
      // no REFpb command, so only this preset carries it.
      table.t_rfc_pb = 56;
      table.per_channel_bus = true;
      break;
  }
  table.Validate();
  return table;
}

}  // namespace vrl::dram
