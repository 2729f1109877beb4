#pragma once

#include <string>
#include <string_view>

#include "dram/timing.hpp"
#include "dram/topology.hpp"

/// \file timing_table.hpp
/// The declarative timing table of the hierarchical memory controller:
/// per-bank core timings (TimingParams) plus the inter-bank constraints a
/// channel/rank/bank-group hierarchy adds, with named JEDEC-derived presets.
///
/// All values are memory-controller cycles at the paper's 2.5 ns clock;
/// the presets convert the JEDEC nanosecond minima with SecondsToCyclesCeil
/// (a DRAM timing must be met or exceeded).  The per-bank core timings stay
/// the paper's for every preset — the presets layer *inter-bank* windows on
/// top, so refresh-policy comparisons across presets vary exactly one
/// thing: the hierarchy (docs/TOPOLOGY.md documents each preset's values
/// and their JEDEC sources).

namespace vrl::dram {

/// Inter-bank constraint set + topology.  Zero disables a constraint.
struct TimingTable {
  TimingParams core;   ///< Per-bank timings (tRCD/tRP/tCAS/tRAS/tWR/tBUS,
                       ///< tREFI/tREFW).
  Topology topology;

  /// ACTIVATE→ACTIVATE minimum to *different* / *same* bank group within
  /// one rank (tRRD_S / tRRD_L; pre-DDR4 devices have one tRRD — set both
  /// equal).
  Cycles t_rrd_s = 0;
  Cycles t_rrd_l = 0;

  /// Rolling activation window: at most four ACTIVATEs to one rank within
  /// any tFAW cycles.
  Cycles t_faw = 0;

  /// Column-command→column-command minimum to different / same bank group
  /// within one rank (tCCD_S / tCCD_L).
  Cycles t_ccd_s = 0;
  Cycles t_ccd_l = 0;

  /// Rank-to-rank data-bus turnaround: idle bus cycles required between
  /// bursts of different ranks on one channel.
  Cycles t_rtrs = 0;

  /// Nominal all-bank full-refresh latency tRFC, for reference/reporting.
  /// The simulated refresh ops carry their own per-operation tRFC — the
  /// paper's variable refresh latency (refresh_policy.hpp).
  Cycles t_rfc = 0;

  /// Nominal per-bank refresh latency tRFCpb (REFpb), for
  /// reference/reporting; zero when the device has no per-bank refresh
  /// command (DDR3/DDR4 — REFpb is an LPDDR feature).  Like t_rfc, the
  /// simulated ops carry their own latency.
  Cycles t_rfc_pb = 0;

  /// True when the banks of a channel share one data bus (bursts serialize
  /// channel-wide and tRTRS applies).  False reproduces the flat model,
  /// where each bank owns its data path.
  bool per_channel_bus = false;

  /// True when any inter-bank machinery is active — a non-degenerate
  /// topology, a shared channel bus, or any non-zero constraint.  The
  /// controller keys its bank grouping off this: true runs all banks as
  /// one group under a ConstraintEngine, false runs each bank as its own
  /// group — the flat model, unchanged.
  bool IsHierarchical() const {
    return !topology.IsDegenerate() || per_channel_bus || t_rrd_s != 0 ||
           t_rrd_l != 0 || t_faw != 0 || t_ccd_s != 0 || t_ccd_l != 0 ||
           t_rtrs != 0;
  }

  /// \throws vrl::ConfigError on inconsistent values (core timings invalid,
  /// zero topology level, tRRD_L < tRRD_S, tCCD_L < tCCD_S, or a tFAW
  /// shorter than one tRRD — four ACTs could never fit the window).
  void Validate() const;

  bool operator==(const TimingTable&) const = default;
};

/// Named timing-table presets (docs/TOPOLOGY.md has the value tables and
/// JEDEC citations).
enum class TimingPreset {
  /// The degenerate hierarchy: one channel, one rank, one bank group, all
  /// constraints zero, per-bank data paths.  Byte-for-byte today's flat
  /// model — the Fig. 1–5 bench binaries are pinned to it.
  kSingleBankEquivalent,
  /// DDR3-1600 (JESD79-3F): 1 channel x 2 ranks x 8 banks, no bank groups.
  kDdr3_1600,
  /// DDR4-2400 (JESD79-4B): 1 channel x 2 ranks x 4 bank groups x 4 banks.
  kDdr4_2400,
  /// LPDDR4-3200 (JESD209-4B): 2 channels x 1 rank x 8 banks.
  kLpddr4_3200,
};

/// All presets, in declaration order (bench grids iterate this).
inline constexpr TimingPreset kAllTimingPresets[] = {
    TimingPreset::kSingleBankEquivalent, TimingPreset::kDdr3_1600,
    TimingPreset::kDdr4_2400, TimingPreset::kLpddr4_3200};

/// Human-readable preset name ("SingleBankEquivalent", "DDR3_1600", ...).
std::string PresetName(TimingPreset preset);

/// Round-trip inverse of PresetName.  Case-insensitive; '-' and '_' are
/// interchangeable and ignorable ("ddr4-2400", "DDR4_2400" and "ddr42400"
/// all parse).  \throws vrl::ConfigError on an unknown name.
TimingPreset PresetFromName(std::string_view name);

/// Builds the preset's timing table.  `banks` sizes the degenerate
/// single-bank-equivalent topology (its banks_per_group — the flat bank
/// count); the hardware presets carry their own topology and ignore it.
/// The core per-bank timings are TimingParams defaults for every preset.
TimingTable MakeTimingTable(TimingPreset preset, std::size_t banks = 8);

}  // namespace vrl::dram
