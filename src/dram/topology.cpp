#include "dram/topology.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "dram/timing_table.hpp"

namespace vrl::dram {

void Topology::Validate() const {
  if (channels == 0 || ranks_per_channel == 0 || bank_groups_per_rank == 0 ||
      banks_per_group == 0) {
    throw ConfigError("Topology: every hierarchy level needs at least one "
                      "member (channels, ranks, bank groups, banks)");
  }
}

BankAddress DecomposeBank(const Topology& topology, std::size_t flat) {
  topology.Validate();
  if (flat >= topology.TotalBanks()) {
    throw ConfigError("DecomposeBank: flat bank index out of range");
  }
  BankAddress addr;
  addr.bank = flat % topology.banks_per_group;
  flat /= topology.banks_per_group;
  addr.bank_group = flat % topology.bank_groups_per_rank;
  flat /= topology.bank_groups_per_rank;
  addr.rank = flat % topology.ranks_per_channel;
  addr.channel = flat / topology.ranks_per_channel;
  return addr;
}

std::size_t FlattenBank(const Topology& topology, const BankAddress& addr) {
  topology.Validate();
  if (addr.channel >= topology.channels ||
      addr.rank >= topology.ranks_per_channel ||
      addr.bank_group >= topology.bank_groups_per_rank ||
      addr.bank >= topology.banks_per_group) {
    throw ConfigError("FlattenBank: bank address field out of range");
  }
  return ((addr.channel * topology.ranks_per_channel + addr.rank) *
              topology.bank_groups_per_rank +
          addr.bank_group) *
             topology.banks_per_group +
         addr.bank;
}

ConstraintEngine::ConstraintEngine(const TimingTable& table) : table_(table) {
  table_.Validate();
  const Topology& topo = table_.topology;
  ranks_.resize(topo.TotalRanks());
  for (RankState& rank : ranks_) {
    rank.last_act_by_group.assign(topo.bank_groups_per_rank, 0);
    rank.act_seen.assign(topo.bank_groups_per_rank, 0);
    rank.last_col_by_group.assign(topo.bank_groups_per_rank, 0);
    rank.col_seen.assign(topo.bank_groups_per_rank, 0);
  }
  channels_.resize(topo.channels);
  activity_.rank_activations.assign(topo.TotalRanks(), 0);
  activity_.rank_columns.assign(topo.TotalRanks(), 0);
  activity_.channel_bursts.assign(topo.channels, 0);
}

std::size_t ConstraintEngine::GlobalRank(const BankAddress& addr) const {
  return addr.channel * table_.topology.ranks_per_channel + addr.rank;
}

std::pair<Cycles, Cycles> ConstraintEngine::ActivateFloors(
    const BankAddress& addr, Cycles at) const {
  const RankState& rank = ranks_[GlobalRank(addr)];

  // tRRD: minimum ACT->ACT gap within the rank, long to the same bank
  // group, short across groups.
  Cycles trrd_floor = at;
  for (std::size_t g = 0; g < rank.act_seen.size(); ++g) {
    if (!rank.act_seen[g]) {
      continue;
    }
    const Cycles gap =
        g == addr.bank_group ? table_.t_rrd_l : table_.t_rrd_s;
    if (gap != 0) {
      trrd_floor = std::max(trrd_floor, rank.last_act_by_group[g] + gap);
    }
  }

  // tFAW: at most four ACTs to the rank in any window of t_faw cycles,
  // counted over the half-open window (t - tFAW, t].  The recorded history
  // is not guaranteed cycle-ordered (see class comment), so the earliest
  // legal cycle is found over the candidate set {floor} ∪ {a + tFAW}: the
  // count of in-window ACTs only drops at a recorded ACT's leave point.
  // `recent_acts` is sorted, so a candidate's count is two binary searches
  // and the candidates can be walked in ascending order.
  Cycles faw_floor = trrd_floor;
  const std::vector<Cycles>& acts = rank.recent_acts;
  const Cycles faw = table_.t_faw;
  if (faw != 0 && acts.size() >= 4) {
    const auto legal = [&](Cycles t) {
      // ACTs a with a <= t and a + tFAW > t, i.e. a in (t - tFAW, t].
      const auto hi = std::upper_bound(acts.begin(), acts.end(), t);
      const auto lo = t < faw ? acts.begin()
                              : std::upper_bound(acts.begin(), hi, t - faw);
      return hi - lo <= 3;
    };
    if (!legal(trrd_floor)) {
      // Leave points below trrd_floor are not candidates.  Every window
      // empties once all recorded ACTs have left, so the walk finds a legal
      // candidate; the fallback keeps the floor if it ever did not.
      auto it = trrd_floor < faw ? acts.begin()
                                 : std::lower_bound(acts.begin(), acts.end(),
                                                    trrd_floor - faw);
      for (; it != acts.end(); ++it) {
        if (legal(*it + faw)) {
          faw_floor = *it + faw;
          break;
        }
      }
    }
  }

  return {trrd_floor, faw_floor};
}

Cycles ConstraintEngine::EarliestActivate(const BankAddress& addr,
                                          Cycles at) {
  const auto [trrd_floor, faw_floor] = ActivateFloors(addr, at);
  const Cycles floored = std::max(trrd_floor, faw_floor);
  if (floored > at) {
    if (faw_floor > trrd_floor) {
      ++stats_.tfaw_stalls;
      stats_.tfaw_stall_cycles += floored - at;
    } else {
      ++stats_.trrd_stalls;
      stats_.trrd_stall_cycles += floored - at;
    }
  }
  return floored;
}

Cycles ConstraintEngine::PeekActivate(const BankAddress& addr,
                                      Cycles at) const {
  const auto [trrd_floor, faw_floor] = ActivateFloors(addr, at);
  return std::max(trrd_floor, faw_floor);
}

void ConstraintEngine::RecordActivate(const BankAddress& addr, Cycles at) {
  const std::size_t global = GlobalRank(addr);
  RankState& rank = ranks_[global];
  ++activity_.rank_activations[global];
  if (rank.act_seen[addr.bank_group]) {
    rank.last_act_by_group[addr.bank_group] =
        std::max(rank.last_act_by_group[addr.bank_group], at);
  } else {
    rank.last_act_by_group[addr.bank_group] = at;
    rank.act_seen[addr.bank_group] = 1;
  }
  if (table_.t_faw == 0) {
    return;
  }
  rank.recent_acts.insert(
      std::upper_bound(rank.recent_acts.begin(), rank.recent_acts.end(), at),
      at);
  // Prune conservatively: an ACT can only matter to a future window that
  // reaches back at most tFAW; keeping twice that behind the newest ACT
  // covers the mildly out-of-order recording the controller can produce.
  const Cycles newest = rank.recent_acts.back();
  if (newest > 2 * table_.t_faw) {
    const Cycles cutoff = newest - 2 * table_.t_faw;
    rank.recent_acts.erase(
        rank.recent_acts.begin(),
        std::lower_bound(rank.recent_acts.begin(), rank.recent_acts.end(),
                         cutoff));
  }
}

Cycles ConstraintEngine::EarliestColumn(const BankAddress& addr, Cycles at) {
  const RankState& rank = ranks_[GlobalRank(addr)];
  Cycles floor = at;
  for (std::size_t g = 0; g < rank.col_seen.size(); ++g) {
    if (!rank.col_seen[g]) {
      continue;
    }
    const Cycles gap =
        g == addr.bank_group ? table_.t_ccd_l : table_.t_ccd_s;
    if (gap != 0) {
      floor = std::max(floor, rank.last_col_by_group[g] + gap);
    }
  }
  if (floor > at) {
    ++stats_.tccd_stalls;
    stats_.tccd_stall_cycles += floor - at;
  }
  return floor;
}

void ConstraintEngine::RecordColumn(const BankAddress& addr, Cycles at) {
  const std::size_t global = GlobalRank(addr);
  RankState& rank = ranks_[global];
  ++activity_.rank_columns[global];
  if (rank.col_seen[addr.bank_group]) {
    rank.last_col_by_group[addr.bank_group] =
        std::max(rank.last_col_by_group[addr.bank_group], at);
  } else {
    rank.last_col_by_group[addr.bank_group] = at;
    rank.col_seen[addr.bank_group] = 1;
  }
}

Cycles ConstraintEngine::EarliestBurst(const BankAddress& addr, Cycles at) {
  if (!table_.per_channel_bus) {
    return at;
  }
  const ChannelState& channel = channels_[addr.channel];
  if (!channel.any_burst) {
    return at;
  }
  Cycles floor = channel.bus_free;
  const bool rank_switch = channel.last_rank != addr.rank;
  if (rank_switch) {
    floor += table_.t_rtrs;
  }
  if (floor > at) {
    if (rank_switch && table_.t_rtrs != 0) {
      ++stats_.trtrs_stalls;
      stats_.trtrs_stall_cycles += floor - at;
    } else {
      ++stats_.bus_stalls;
      stats_.bus_stall_cycles += floor - at;
    }
    return floor;
  }
  return at;
}

void ConstraintEngine::RecordBurst(const BankAddress& addr, Cycles start,
                                   Cycles end) {
  (void)start;
  ChannelState& channel = channels_[addr.channel];
  ++activity_.channel_bursts[addr.channel];
  if (!table_.per_channel_bus) {
    return;
  }
  if (!channel.any_burst || end > channel.bus_free) {
    channel.bus_free = end;
    channel.last_rank = addr.rank;
    channel.any_burst = true;
  }
}

}  // namespace vrl::dram
