#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/units.hpp"

/// \file topology.hpp
/// The DRAM device hierarchy — Channel → Rank → BankGroup → Bank — and the
/// inter-bank timing-constraint engine that enforces it.
///
/// The flat MemoryController keeps addressing banks by one index; Topology
/// maps that index onto the hierarchy (channel-major, then rank, then bank
/// group) so existing traces and policies are untouched.  The degenerate
/// topology (one channel, one rank, one group) is exactly today's flat
/// model: no constraint below ever binds and the controller runs each bank
/// as its own group, byte-for-byte the flat model (see TimingPreset::
/// kSingleBankEquivalent in timing_table.hpp).
///
/// The ConstraintEngine is the *active* half of the timing story: the bank
/// asks it for the earliest legal issue cycle of each ACTIVATE / column
/// command / data burst and reports what it actually issued.  The *passive*
/// half is the TimingAuditor (auditor.hpp), an independent re-implementation
/// that replays a recorded command stream and flags every window violation —
/// the two are deliberately separate code so an engine bug cannot hide from
/// the audit.

namespace vrl::dram {

struct TimingTable;  // timing_table.hpp

/// Bank counts at each level of the hierarchy.  Total banks is the product;
/// the flat bank index decomposes channel-major (see DecomposeBank).
struct Topology {
  std::size_t channels = 1;
  std::size_t ranks_per_channel = 1;
  std::size_t bank_groups_per_rank = 1;
  std::size_t banks_per_group = 1;

  std::size_t TotalBanks() const {
    return channels * ranks_per_channel * bank_groups_per_rank *
           banks_per_group;
  }
  std::size_t BanksPerRank() const {
    return bank_groups_per_rank * banks_per_group;
  }
  std::size_t BanksPerChannel() const {
    return ranks_per_channel * BanksPerRank();
  }
  std::size_t TotalRanks() const { return channels * ranks_per_channel; }

  /// True when the hierarchy collapses to today's flat bank list.
  bool IsDegenerate() const {
    return channels == 1 && ranks_per_channel == 1 &&
           bank_groups_per_rank == 1;
  }

  /// \throws vrl::ConfigError when any level is zero.
  void Validate() const;

  bool operator==(const Topology&) const = default;
};

/// A flat bank index decomposed onto the hierarchy.
struct BankAddress {
  std::size_t channel = 0;
  std::size_t rank = 0;        ///< Within the channel.
  std::size_t bank_group = 0;  ///< Within the rank.
  std::size_t bank = 0;        ///< Within the bank group.

  bool operator==(const BankAddress&) const = default;
};

/// Decomposes a flat bank index (channel-major: channel, then rank, then
/// bank group, then bank).  \throws vrl::ConfigError when out of range.
BankAddress DecomposeBank(const Topology& topology, std::size_t flat);

/// Inverse of DecomposeBank.  \throws vrl::ConfigError on a field out of
/// range.
std::size_t FlattenBank(const Topology& topology, const BankAddress& addr);

/// Stall accounting of the constraint engine: how often — and for how many
/// cycles — each inter-bank window pushed a command past its natural issue
/// cycle.  Exported as `dram.hier.*` telemetry by the controller.
struct ConstraintStats {
  std::uint64_t trrd_stalls = 0;
  Cycles trrd_stall_cycles = 0;
  std::uint64_t tfaw_stalls = 0;
  Cycles tfaw_stall_cycles = 0;
  std::uint64_t tccd_stalls = 0;
  Cycles tccd_stall_cycles = 0;
  std::uint64_t trtrs_stalls = 0;
  Cycles trtrs_stall_cycles = 0;
  std::uint64_t bus_stalls = 0;  ///< Channel data-bus occupancy (same rank).
  Cycles bus_stall_cycles = 0;

  std::uint64_t TotalStalls() const {
    return trrd_stalls + tfaw_stalls + tccd_stalls + trtrs_stalls +
           bus_stalls;
  }
};

/// Per-rank activity counters (activations, column commands) and per-channel
/// burst counts, for the hierarchy telemetry.
struct HierarchyActivity {
  std::vector<std::uint64_t> rank_activations;     ///< [global rank]
  std::vector<std::uint64_t> rank_columns;         ///< [global rank]
  std::vector<std::uint64_t> channel_bursts;       ///< [channel]
};

/// Enforces the inter-bank constraints of a TimingTable during simulation.
///
/// The bank calls Earliest* to floor a command's issue cycle, then Record*
/// with the cycle it actually issued at.  Commands need not be recorded in
/// globally non-decreasing cycle order (the controller interleaves banks by
/// decision instant, which only approximates issue order); the engine keeps
/// enough history that its floors stay conservative — never earlier than a
/// legal cycle — regardless of recording order, so an audited replay of the
/// resulting stream is violation-free by construction.
///
/// Zero-valued constraints are disabled, and a table whose constraints are
/// all zero (the single-bank-equivalent preset) makes every Earliest* the
/// identity.
class ConstraintEngine {
 public:
  /// `table` must outlive the engine.
  explicit ConstraintEngine(const TimingTable& table);

  // -- ACTIVATE: tRRD_S/tRRD_L plus the rolling four-ACT tFAW window -------
  Cycles EarliestActivate(const BankAddress& addr, Cycles at);
  void RecordActivate(const BankAddress& addr, Cycles at);

  /// EarliestActivate without the stall accounting: a side-effect-free
  /// what-if for the refresh grant scheduler (GrantRefreshes), which probes
  /// whether a REFpb could issue now without perturbing the `dram.hier.*`
  /// stall telemetry of the demand path.
  Cycles PeekActivate(const BankAddress& addr, Cycles at) const;

  // -- Column command: tCCD_S/tCCD_L within the rank -----------------------
  Cycles EarliestColumn(const BankAddress& addr, Cycles at);
  void RecordColumn(const BankAddress& addr, Cycles at);

  // -- Data burst: channel bus occupancy + tRTRS rank turnaround -----------
  /// Earliest cycle the data burst may start on the channel bus.  Only
  /// binding when the table shares the channel bus (per_channel_bus).
  Cycles EarliestBurst(const BankAddress& addr, Cycles at);
  void RecordBurst(const BankAddress& addr, Cycles start, Cycles end);

  const ConstraintStats& stats() const { return stats_; }
  const HierarchyActivity& activity() const { return activity_; }

 private:
  struct RankState {
    /// Most recent ACT cycle per bank group (0 = none yet; disambiguated
    /// by `act_seen`).
    std::vector<Cycles> last_act_by_group;
    std::vector<std::uint8_t> act_seen;
    /// Recent ACT cycles, kept sorted ascending, pruned to the tFAW
    /// horizon — the rolling four-activate window.
    std::vector<Cycles> recent_acts;
    /// Most recent column-command cycle per bank group.
    std::vector<Cycles> last_col_by_group;
    std::vector<std::uint8_t> col_seen;
  };
  struct ChannelState {
    Cycles bus_free = 0;          ///< End of the latest recorded burst.
    std::size_t last_rank = 0;    ///< Rank owning that burst.
    bool any_burst = false;
  };

  std::size_t GlobalRank(const BankAddress& addr) const;

  /// The tRRD and tFAW floors of an ACTIVATE at `at` (tfaw_floor >=
  /// trrd_floor).  Shared by EarliestActivate (which attributes the stall)
  /// and PeekActivate (which must stay const).
  std::pair<Cycles, Cycles> ActivateFloors(const BankAddress& addr,
                                           Cycles at) const;

  const TimingTable& table_;
  std::vector<RankState> ranks_;
  std::vector<ChannelState> channels_;
  ConstraintStats stats_;
  HierarchyActivity activity_;
};

}  // namespace vrl::dram
