// TimingAuditor equivalence and the command-log handoff.
//
// ReferenceAudit below is the map-based replay the dense auditor replaced,
// kept verbatim except that it decomposes each command's flat bank index
// itself.  The dense TimingAuditor must report exactly what it reports —
// same text, same command count — on random streams that fire every rule
// and on the real streams of every registry policy.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/vrl_system.hpp"
#include "dram/auditor.hpp"
#include "dram/bank.hpp"
#include "dram/controller.hpp"
#include "dram/policy_registry.hpp"
#include "dram/timing_table.hpp"
#include "trace/address.hpp"
#include "trace/synthetic.hpp"

namespace vrl::dram {
namespace {

// ---------------------------------------------------------------------------
// The map-based reference replay
// ---------------------------------------------------------------------------

std::string RefNeed(Cycles need, Cycles reference, const std::string& what) {
  std::ostringstream os;
  os << "need >= " << need << " (" << what << " " << reference << ")";
  return os.str();
}

struct RefSubarrayState {
  bool act_seen = false;
  Cycles last_act = 0;
  bool pre_seen = false;
  Cycles last_pre = 0;
  bool wr_seen = false;
  Cycles last_wr_burst_end = 0;
  bool ref_seen = false;
  Cycles ref_start = 0;
  Cycles ref_end = 0;
};

struct RefRankState {
  std::map<std::size_t, Cycles> last_act_by_group;
  std::map<std::size_t, Cycles> last_col_by_group;
  std::deque<Cycles> faw_window;
};

struct RefBusState {
  bool any = false;
  Cycles last_end = 0;
  std::size_t last_rank = 0;
};

struct RefBankRefState {
  bool seen = false;
  Cycles start = 0;
  Cycles end = 0;
};

AuditReport ReferenceAudit(const TimingTable& table, const CommandLog& log) {
  AuditReport report;
  report.commands_checked = log.size();

  std::vector<std::size_t> order(log.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return log.commands()[a].at < log.commands()[b].at;
                   });

  const TimingParams& core = table.core;
  std::map<std::pair<std::size_t, std::size_t>, RefSubarrayState> subarrays;
  std::map<std::size_t, RefRankState> ranks;
  std::map<std::size_t, RefBusState> buses;
  std::map<std::size_t, RefBankRefState> bank_refresh;

  const auto flag = [&](const Command& c, const BankAddress& addr,
                        const std::string& rule, std::string detail) {
    report.violations.push_back({c.at, rule, addr, std::move(detail)});
  };

  const auto act_windows = [&](const Command& c, const BankAddress& addr,
                               std::size_t global_rank) {
    RefRankState& rank = ranks[global_rank];
    for (const auto& [group, last] : rank.last_act_by_group) {
      const Cycles gap =
          group == addr.bank_group ? table.t_rrd_l : table.t_rrd_s;
      if (gap != 0 && c.at < last + gap) {
        flag(c, addr, group == addr.bank_group ? "tRRD_L" : "tRRD_S",
             RefNeed(last + gap, last, "last ACT"));
      }
    }
    if (table.t_faw != 0) {
      while (!rank.faw_window.empty() &&
             rank.faw_window.front() + table.t_faw <= c.at) {
        rank.faw_window.pop_front();
      }
      if (rank.faw_window.size() >= 4) {
        flag(c, addr, "tFAW",
             RefNeed(rank.faw_window.front() + table.t_faw,
                     rank.faw_window.front(), "5th ACT in window since"));
      }
      rank.faw_window.push_back(c.at);
    }
    auto [it, inserted] =
        rank.last_act_by_group.try_emplace(addr.bank_group, c.at);
    if (!inserted) {
      it->second = std::max(it->second, c.at);
    }
  };

  for (const std::size_t i : order) {
    const Command& c = log.commands()[i];
    const std::size_t flat = c.bank;
    const BankAddress addr = DecomposeBank(table.topology, flat);
    const std::size_t global_rank =
        addr.channel * table.topology.ranks_per_channel + addr.rank;
    RefSubarrayState& sub = subarrays[{flat, c.subarray}];

    if (sub.ref_seen && c.at >= sub.ref_start && c.at < sub.ref_end) {
      flag(c, addr, "refresh-occupancy",
           RefNeed(sub.ref_end, sub.ref_start, "refresh busy since"));
    }
    RefBankRefState& bref = bank_refresh[flat];
    if (bref.seen && c.at >= bref.start && c.at < bref.end) {
      flag(c, addr, "refresh-occupancy",
           RefNeed(bref.end, bref.start, "bank refresh busy since"));
    }

    switch (c.kind) {
      case CommandKind::kActivate: {
        if (sub.pre_seen && c.at < sub.last_pre + core.t_rp) {
          flag(c, addr, "tRP",
               RefNeed(sub.last_pre + core.t_rp, sub.last_pre, "last PRE"));
        }
        act_windows(c, addr, global_rank);
        sub.act_seen = true;
        sub.last_act = c.at;
        break;
      }
      case CommandKind::kRead:
      case CommandKind::kWrite: {
        if (sub.act_seen && c.at < sub.last_act + core.t_rcd) {
          flag(c, addr, "tRCD",
               RefNeed(sub.last_act + core.t_rcd, sub.last_act, "last ACT"));
        }
        RefRankState& rank = ranks[global_rank];
        for (const auto& [group, last] : rank.last_col_by_group) {
          const Cycles gap =
              group == addr.bank_group ? table.t_ccd_l : table.t_ccd_s;
          if (gap != 0 && c.at < last + gap) {
            flag(c, addr, group == addr.bank_group ? "tCCD_L" : "tCCD_S",
                 RefNeed(last + gap, last, "last column command"));
          }
        }
        auto [it, inserted] =
            rank.last_col_by_group.try_emplace(addr.bank_group, c.at);
        if (!inserted) {
          it->second = std::max(it->second, c.at);
        }

        const Cycles burst_start = c.at + core.t_cas;
        const Cycles burst_end = burst_start + core.t_bus;
        const std::size_t bus_key =
            table.per_channel_bus ? addr.channel : flat;
        RefBusState& bus = buses[bus_key];
        if (bus.any) {
          if (burst_start < bus.last_end) {
            flag(c, addr, "bus-overlap",
                 RefNeed(bus.last_end, bus.last_end, "previous burst ends"));
          } else if (table.per_channel_bus && table.t_rtrs != 0 &&
                     bus.last_rank != addr.rank &&
                     burst_start < bus.last_end + table.t_rtrs) {
            flag(c, addr, "tRTRS",
                 RefNeed(bus.last_end + table.t_rtrs, bus.last_end,
                         "rank switch after burst ending"));
          }
        }
        if (!bus.any || burst_end > bus.last_end) {
          bus.last_end = burst_end;
          bus.last_rank = addr.rank;
          bus.any = true;
        }

        if (c.kind == CommandKind::kWrite) {
          sub.wr_seen = true;
          sub.last_wr_burst_end = std::max(sub.last_wr_burst_end, burst_end);
        }
        break;
      }
      case CommandKind::kPrecharge: {
        if (sub.act_seen && c.at < sub.last_act + core.t_ras) {
          flag(c, addr, "tRAS",
               RefNeed(sub.last_act + core.t_ras, sub.last_act, "last ACT"));
        }
        if (sub.wr_seen && c.at < sub.last_wr_burst_end + core.t_wr) {
          flag(c, addr, "tWR",
               RefNeed(sub.last_wr_burst_end + core.t_wr,
                       sub.last_wr_burst_end, "write burst end"));
        }
        sub.pre_seen = true;
        sub.last_pre = c.at;
        break;
      }
      case CommandKind::kRefresh: {
        if (c.trfc == 0) {
          flag(c, addr, "refresh-zero-trfc", "refresh op with zero tRFC");
          break;
        }
        if (c.granularity == RefreshGranularity::kSubarray) {
          sub.ref_seen = true;
          sub.ref_start = c.at;
          sub.ref_end = c.at + c.trfc;
          break;
        }
        for (auto it = subarrays.lower_bound({flat, 0});
             it != subarrays.end() && it->first.first == flat; ++it) {
          if (it->first.second == c.subarray) {
            continue;
          }
          const RefSubarrayState& other = it->second;
          if (other.ref_seen && c.at >= other.ref_start &&
              c.at < other.ref_end) {
            flag(c, addr, "refresh-occupancy",
                 RefNeed(other.ref_end, other.ref_start,
                         "refresh busy since"));
          }
        }
        if (c.granularity == RefreshGranularity::kPerBank) {
          act_windows(c, addr, global_rank);
        }
        bref.seen = true;
        bref.start = c.at;
        bref.end = c.at + c.trfc;
        break;
      }
    }
  }

  std::stable_sort(
      report.violations.begin(), report.violations.end(),
      [](const TimingViolation& a, const TimingViolation& b) {
        return std::tie(a.at, a.rule, a.addr.channel, a.addr.rank,
                        a.addr.bank_group, a.addr.bank, a.detail) <
               std::tie(b.at, b.rule, b.addr.channel, b.addr.rank,
                        b.addr.bank_group, b.addr.bank, b.detail);
      });
  return report;
}

// ---------------------------------------------------------------------------
// Random streams: every kind, granularity and rule
// ---------------------------------------------------------------------------

struct TableCase {
  std::string name;
  TimingTable table;
};

std::vector<TableCase> Tables() {
  std::vector<TableCase> tables = {
      {"DDR3_1600", MakeTimingTable(TimingPreset::kDdr3_1600)},
      {"DDR4_2400", MakeTimingTable(TimingPreset::kDdr4_2400)},
      {"LPDDR4_3200", MakeTimingTable(TimingPreset::kLpddr4_3200)},
  };
  // Two channels of two ranks: the per-channel buses, the global rank
  // index and tRTRS all get more than one instance.
  TimingTable wide = MakeTimingTable(TimingPreset::kDdr4_2400);
  wide.topology = {2, 2, 4, 4};
  wide.Validate();
  tables.push_back({"2ch_x_2rk", wide});
  return tables;
}

/// The commands of `log`, in log order.
std::vector<Command> CommandsOf(const CommandLog& log) {
  return {log.commands().begin(), log.commands().end()};
}

/// A dense, partly shuffled stream: issue times drift upward in small
/// steps, jump back by up to 40 cycles one time in four and repeat the
/// previous cycle one time in five, so same-cycle ties and out-of-order
/// appends are common and every window rule gets violated.
CommandLog RandomStream(const TimingTable& table, std::size_t subarrays,
                        std::uint64_t seed, std::size_t n) {
  Rng rng(seed);
  // Streams over 2 or 8 banks crowd one rank (tFAW, each bank's own
  // rules); streams over every bank reach each channel and rank.
  const std::uint64_t banks = table.topology.TotalBanks();
  const std::uint64_t span = std::min<std::uint64_t>(
      banks, seed % 3 == 0 ? 2 : seed % 3 == 1 ? 8 : banks);
  CommandLog log;
  Cycles clock = 64;
  Cycles previous = clock;
  for (std::size_t i = 0; i < n; ++i) {
    clock += rng.UniformInt(7);
    Command c;
    const std::uint64_t shape = rng.UniformInt(20);
    if (shape < 4) {
      c.at = previous;
    } else if (shape < 9) {
      c.at = clock - std::min<Cycles>(clock, rng.UniformInt(41));
    } else {
      c.at = clock;
    }
    previous = c.at;
    c.bank = static_cast<std::uint32_t>(rng.UniformInt(span));
    c.subarray = static_cast<std::uint16_t>(rng.UniformInt(subarrays));
    c.row = static_cast<std::uint32_t>(rng.UniformInt(1024));
    c.kind = static_cast<CommandKind>(rng.UniformInt(5));
    if (c.kind == CommandKind::kRefresh) {
      c.granularity = static_cast<RefreshGranularity>(rng.UniformInt(3));
      c.trfc = rng.UniformInt(10) == 0
                   ? 0
                   : static_cast<std::uint32_t>(1 + rng.UniformInt(80));
    }
    log.Append(c);
  }
  return log;
}

/// The rules a table can fire at all (zero-valued constraints are skipped;
/// a single bank group never sees a "_S" gap; tRTRS needs two ranks on a
/// shared bus).
std::set<std::string> ReachableRules(const TimingTable& table) {
  std::set<std::string> rules = {"refresh-occupancy", "refresh-zero-trfc",
                                 "tRP",  "tRCD", "tRAS", "tWR",
                                 "bus-overlap"};
  const bool groups = table.topology.bank_groups_per_rank > 1;
  const std::pair<bool, const char*> windows[] = {
      {table.t_rrd_l != 0, "tRRD_L"},
      {groups && table.t_rrd_s != 0, "tRRD_S"},
      {table.t_ccd_l != 0, "tCCD_L"},
      {groups && table.t_ccd_s != 0, "tCCD_S"},
      {table.t_faw != 0, "tFAW"},
      {table.per_channel_bus && table.t_rtrs != 0 &&
           table.topology.ranks_per_channel > 1,
       "tRTRS"},
  };
  for (const auto& [reachable, rule] : windows) {
    if (reachable) {
      rules.insert(rule);
    }
  }
  return rules;
}

using RandomCase = std::tuple<std::size_t, std::size_t>;  // table, subarrays

class DenseAuditorRandomTest : public ::testing::TestWithParam<RandomCase> {};

TEST_P(DenseAuditorRandomTest, MatchesReferenceReplay) {
  const auto [table_index, subarrays] = GetParam();
  const TableCase tc = Tables()[table_index];
  const TimingAuditor auditor(tc.table);
  std::set<std::string> fired;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const CommandLog log =
        RandomStream(tc.table, subarrays, seed * 977 + subarrays, 600);
    const AuditReport expected = ReferenceAudit(tc.table, log);
    const AuditReport actual = auditor.Audit(log);
    EXPECT_EQ(actual.commands_checked, expected.commands_checked);
    ASSERT_EQ(actual.ToText(tc.name), expected.ToText(tc.name))
        << "seed " << seed;
    for (const TimingViolation& v : expected.violations) {
      fired.insert(v.rule);
    }
  }
  EXPECT_EQ(fired, ReachableRules(tc.table));
}

INSTANTIATE_TEST_SUITE_P(
    TablesBySubarrays, DenseAuditorRandomTest,
    ::testing::Combine(::testing::Range<std::size_t>(0, 4),
                       ::testing::Range<std::size_t>(1, 5)),
    [](const ::testing::TestParamInfo<RandomCase>& info) {
      return Tables()[std::get<0>(info.param)].name + "_sa" +
             std::to_string(std::get<1>(info.param));
    });

TEST(DenseAuditor, SameCycleTiesReplayInLogOrder) {
  // PRE then ACT at one cycle reads "tRP violated"; ACT then PRE reads
  // "tRAS violated".  Only log order tells the two apart.
  const TimingTable table = MakeTimingTable(TimingPreset::kDdr3_1600);
  const TimingAuditor auditor(table);
  Command pre;
  pre.at = 100;
  pre.kind = CommandKind::kPrecharge;
  Command act = pre;
  act.kind = CommandKind::kActivate;
  CommandLog pre_first;
  pre_first.Append(pre);
  pre_first.Append(act);
  CommandLog act_first;
  act_first.Append(act);
  act_first.Append(pre);
  const AuditReport a = auditor.Audit(pre_first);
  const AuditReport b = auditor.Audit(act_first);
  ASSERT_EQ(a.violations.size(), 1u);
  EXPECT_EQ(a.violations[0].rule, "tRP");
  ASSERT_EQ(b.violations.size(), 1u);
  EXPECT_EQ(b.violations[0].rule, "tRAS");
}

TEST(DenseAuditor, BankRefreshSeesEveryOtherSubarray) {
  // A REFpb on subarray 0 while subarray 3 of the same bank refreshes.
  const TimingTable table = MakeTimingTable(TimingPreset::kLpddr4_3200);
  const TimingAuditor auditor(table);
  Command sub_ref;
  sub_ref.at = 100;
  sub_ref.kind = CommandKind::kRefresh;
  sub_ref.bank = 5;
  sub_ref.subarray = 3;
  sub_ref.trfc = 50;
  Command bank_ref = sub_ref;
  bank_ref.at = 120;
  bank_ref.subarray = 0;
  bank_ref.granularity = RefreshGranularity::kPerBank;
  CommandLog log;
  log.Append(sub_ref);
  log.Append(bank_ref);
  const AuditReport report = auditor.Audit(log);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].rule, "refresh-occupancy");
  EXPECT_EQ(report.violations[0].addr, DecomposeBank(table.topology, 5));
  EXPECT_EQ(report.ToText("t"), ReferenceAudit(table, log).ToText("t"));
}

// ---------------------------------------------------------------------------
// Replay order: a log far from sorted (the fallback) replays as one that is
// nearly sorted (the insertion pass) does
// ---------------------------------------------------------------------------

/// `commands` in a new log, in the given order.
CommandLog LogOf(const std::vector<Command>& commands) {
  CommandLog log;
  for (const Command& c : commands) {
    log.Append(c);
  }
  return log;
}

/// Audits `commands` with the dense auditor and the reference replay, and
/// expects the same report.
void ExpectMatchesReference(const TableCase& tc,
                            const std::vector<Command>& commands) {
  const CommandLog log = LogOf(commands);
  const AuditReport expected = ReferenceAudit(tc.table, log);
  const AuditReport actual = TimingAuditor(tc.table).Audit(log);
  EXPECT_EQ(actual.commands_checked, expected.commands_checked);
  EXPECT_EQ(actual.ToText(tc.name), expected.ToText(tc.name));
  EXPECT_FALSE(expected.clean());
}

TEST(DenseAuditorOrder, ReversedShuffledAndSameCycleLogsMatchReference) {
  for (const TableCase& tc : Tables()) {
    SCOPED_TRACE(tc.name);
    const std::vector<Command> stream =
        CommandsOf(RandomStream(tc.table, 2, 31, 2000));

    std::vector<Command> reversed(stream.rbegin(), stream.rend());
    ExpectMatchesReference(tc, reversed);

    std::vector<Command> shuffled = stream;
    Rng rng(5);
    std::shuffle(shuffled.begin(), shuffled.end(), rng);
    ExpectMatchesReference(tc, shuffled);

    // Every key ties on the cycle: the log index alone orders the replay.
    std::vector<Command> same_cycle = stream;
    for (Command& c : same_cycle) {
      c.at = 500;
    }
    ExpectMatchesReference(tc, same_cycle);
  }
}

TEST(DenseAuditorOrder, DisplacementPastTheShiftBudgetMatchesReference) {
  // A sorted stream with one early command moved back by `shift` places:
  // 100 stays inside the insertion pass's per-key budget, 1500 and the
  // whole log run past it into the std::sort fallback.
  for (const TableCase& tc : Tables()) {
    std::vector<Command> sorted =
        CommandsOf(RandomStream(tc.table, 3, 47, 2000));
    std::stable_sort(sorted.begin(), sorted.end(),
                     [](const Command& a, const Command& b) {
                       return a.at < b.at;
                     });
    for (const std::size_t shift : {100u, 1500u, 1999u}) {
      SCOPED_TRACE(tc.name + " shift " + std::to_string(shift));
      std::vector<Command> displaced = sorted;
      std::rotate(displaced.begin(), displaced.begin() + 1,
                  displaced.begin() + static_cast<std::ptrdiff_t>(shift) + 1);
      ASSERT_LT(displaced[shift].at, displaced[shift - 1].at);
      ExpectMatchesReference(tc, displaced);
    }
  }
}

// ---------------------------------------------------------------------------
// Real streams: every registry policy on DDR4_2400 with 4 subarrays
// ---------------------------------------------------------------------------

core::VrlConfig Ddr4Config() {
  core::VrlConfig config;
  config.ApplyPreset(TimingPreset::kDdr4_2400);
  config.subarrays = 4;
  return config;
}

/// The first `count` Fig. 4 suite traces, mapped as the benches map them.
std::vector<std::vector<Request>> SuiteRequests(const core::VrlSystem& system,
                                                Cycles horizon,
                                                std::size_t count) {
  const trace::AddressMapper mapper(system.Geometry());
  auto workloads = trace::EvaluationSuite();
  workloads.resize(count);
  std::vector<std::vector<Request>> out;
  for (const auto& workload : workloads) {
    Rng rng(system.config().seed ^ 0xABCD'1234ULL);
    out.push_back(trace::MapToRequests(
        trace::GenerateTrace(workload, system.Geometry(), horizon, rng),
        mapper));
  }
  return out;
}

class DenseAuditorPolicyTest : public ::testing::TestWithParam<std::string> {};

TEST_P(DenseAuditorPolicyTest, MatchesReferenceOnSuiteTraces) {
  const core::VrlConfig config = Ddr4Config();
  const core::VrlSystem system(config);
  const TimingTable table = config.TimingTableFor();
  const TimingAuditor auditor(table);
  const Cycles horizon = system.HorizonForWindows(1);
  for (const auto& requests : SuiteRequests(system, horizon, 2)) {
    CommandLog log;
    system.Simulate(GetParam(), requests, horizon, nullptr, &log);
    ASSERT_FALSE(log.empty());
    const AuditReport expected = ReferenceAudit(table, log);
    const AuditReport actual = auditor.Audit(log);
    EXPECT_EQ(actual.commands_checked, expected.commands_checked);
    EXPECT_EQ(actual.ToText("DDR4_2400"), expected.ToText("DDR4_2400"));
  }
}

std::vector<std::string> RegistryNames() {
  std::vector<std::string> names;
  for (const PolicyInfo& info : PolicyRegistry::Global().entries()) {
    names.push_back(info.name);
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(
    RegistryPolicies, DenseAuditorPolicyTest,
    ::testing::ValuesIn(RegistryNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name;
      for (const char ch : info.param) {
        name += std::isalnum(static_cast<unsigned char>(ch)) != 0 ? ch : '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// The log handoff keeps Simulate's append contract
// ---------------------------------------------------------------------------

/// The controller Simulate builds, with its own log enabled and run.
std::vector<Command> ControllerLog(const core::VrlSystem& system,
                                   const std::string& policy,
                                   const std::vector<Request>& requests,
                                   Cycles horizon) {
  const core::VrlConfig& config = system.config();
  MemoryController controller(config.TimingTableFor(), config.tech.rows,
                              system.MakePolicyFactory(policy),
                              config.scheduler, config.page_policy,
                              config.subarrays);
  controller.EnableAudit();
  controller.Run(requests, horizon);
  return CommandsOf(*controller.audit_log());
}

TEST(AuditHandoff, SimulateIntoEmptyLogEqualsControllerLog) {
  const core::VrlSystem system(Ddr4Config());
  const Cycles horizon = system.HorizonForWindows(1);
  const auto requests = SuiteRequests(system, horizon, 1).front();
  for (const std::string policy : {"VRL-Access", "DARP"}) {
    CommandLog log;
    system.Simulate(policy, requests, horizon, nullptr, &log);
    const std::vector<Command> expected =
        ControllerLog(system, policy, requests, horizon);
    ASSERT_FALSE(expected.empty());
    EXPECT_TRUE(log.commands() == expected) << policy;
  }
}

TEST(AuditHandoff, SimulateAppendsAfterEarlierCommands) {
  const core::VrlSystem system(Ddr4Config());
  const Cycles horizon = system.HorizonForWindows(1);
  const auto requests = SuiteRequests(system, horizon, 1).front();
  CommandLog log;
  Command marker;
  marker.at = 7;
  marker.bank = 3;
  marker.kind = CommandKind::kPrecharge;
  log.Append(marker);
  marker.at = 9;
  log.Append(marker);
  system.Simulate("JEDEC", requests, horizon, nullptr, &log);
  const std::vector<Command> run =
      ControllerLog(system, "JEDEC", requests, horizon);
  ASSERT_EQ(log.size(), run.size() + 2);
  EXPECT_EQ(log.commands()[0].at, 7u);
  EXPECT_EQ(log.commands()[1].at, 9u);
  EXPECT_TRUE(std::equal(run.begin(), run.end(), log.commands().begin() + 2));
}

TEST(AuditHandoff, AppendLogSwapsIntoEmptyAndInsertsOtherwise) {
  Command a;
  a.at = 1;
  Command b;
  b.at = 2;
  CommandLog tail;
  tail.Append(a);
  tail.Append(b);
  CommandLog empty;
  empty.AppendLog(std::move(tail));
  EXPECT_EQ(empty.size(), 2u);
  EXPECT_TRUE(tail.empty());  // NOLINT(bugprone-use-after-move)

  CommandLog more;
  more.Append(b);
  more.AppendLog(std::move(empty));
  ASSERT_EQ(more.size(), 3u);
  EXPECT_EQ(more.commands()[0].at, 2u);
  EXPECT_EQ(more.commands()[1].at, 1u);
  EXPECT_EQ(more.commands()[2].at, 2u);
  EXPECT_TRUE(empty.empty());  // NOLINT(bugprone-use-after-move)
}

// ---------------------------------------------------------------------------
// The chunked command log
// ---------------------------------------------------------------------------

/// Command `i` of a test stream: its cycle is its index.
Command Numbered(std::size_t i) {
  Command c;
  c.at = i;
  c.row = static_cast<std::uint32_t>(i % 1000);
  c.bank = static_cast<std::uint32_t>(i % 7);
  c.kind = static_cast<CommandKind>(i % 5);
  return c;
}

TEST(CommandLogChunks, AppendIndexAndIterateAcrossChunkBoundaries) {
  constexpr std::size_t kChunk = CommandLog::kChunkSize;
  const std::size_t n = 2 * kChunk + 7;
  CommandLog log;
  std::vector<Command> expected;
  for (std::size_t i = 0; i < n; ++i) {
    log.Append(Numbered(i));
    expected.push_back(Numbered(i));
  }
  ASSERT_EQ(log.size(), n);
  for (const std::size_t i : {std::size_t{0}, kChunk - 1, kChunk,
                              2 * kChunk - 1, 2 * kChunk, n - 1}) {
    EXPECT_EQ(log[i], expected[i]) << i;
    EXPECT_EQ(log.commands()[i], expected[i]) << i;
  }
  std::size_t visited = 0;
  for (const Command& c : log.commands()) {
    ASSERT_EQ(c.at, visited);
    ++visited;
  }
  EXPECT_EQ(visited, n);
  EXPECT_TRUE(log.commands() == expected);
  const auto begin = log.commands().begin();
  EXPECT_EQ(log.commands().end() - begin, static_cast<std::ptrdiff_t>(n));
  EXPECT_EQ((begin + static_cast<std::ptrdiff_t>(kChunk))->at, kChunk);
  EXPECT_EQ(begin[static_cast<std::ptrdiff_t>(2 * kChunk)].at, 2 * kChunk);
  // An append never moves a recorded command.
  const Command* first = &log[0];
  const Command* last = &log[n - 1];
  for (std::size_t i = n; i < n + kChunk; ++i) {
    log.Append(Numbered(i));
  }
  EXPECT_EQ(&log[0], first);
  EXPECT_EQ(&log[n - 1], last);
}

TEST(CommandLogChunks, AppendLogMovesChunksIntoEmptyAndCopiesOtherwise) {
  constexpr std::size_t kChunk = CommandLog::kChunkSize;
  CommandLog tail;
  for (std::size_t i = 0; i < kChunk + 3; ++i) {
    tail.Append(Numbered(i));
  }
  const Command* moved = &tail[kChunk];
  CommandLog empty;
  empty.AppendLog(std::move(tail));
  EXPECT_TRUE(tail.empty());  // NOLINT(bugprone-use-after-move)
  ASSERT_EQ(empty.size(), kChunk + 3);
  EXPECT_EQ(&empty[kChunk], moved);  // the chunks changed hands

  // Five commands first: the appended ones straddle the chunk boundary.
  CommandLog head;
  for (std::size_t i = 0; i < 5; ++i) {
    head.Append(Numbered(1000 + i));
  }
  head.AppendLog(std::move(empty));
  EXPECT_TRUE(empty.empty());  // NOLINT(bugprone-use-after-move)
  ASSERT_EQ(head.size(), kChunk + 8);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(head[i], Numbered(1000 + i));
  }
  for (std::size_t i = 0; i < kChunk + 3; ++i) {
    ASSERT_EQ(head[5 + i], Numbered(i)) << i;
  }

  // A moved-from log is empty and logs again from its first slot.
  CommandLog taken = std::move(head);
  EXPECT_TRUE(head.empty());  // NOLINT(bugprone-use-after-move)
  head.Append(Numbered(9));
  ASSERT_EQ(head.size(), 1u);
  EXPECT_EQ(head[0], Numbered(9));
  EXPECT_EQ(taken.size(), kChunk + 8);
}

TEST(CommandLogChunks, ReleasedChunksServeTheNextLog) {
  CommandLog first;
  first.Append(Numbered(1));
  const Command* slot = &first[0];
  first.Clear();
  EXPECT_TRUE(first.empty());
  CommandLog next;
  next.Append(Numbered(2));
  EXPECT_EQ(&next[0], slot);
  EXPECT_EQ(next[0], Numbered(2));
}

TEST(CommandLogChunks, TakeAuditLogHandsOverEveryChunk) {
  const core::VrlSystem system(Ddr4Config());
  const Cycles horizon = system.HorizonForWindows(1);
  const auto requests = SuiteRequests(system, horizon, 1).front();
  const core::VrlConfig& config = system.config();
  MemoryController controller(config.TimingTableFor(), config.tech.rows,
                              system.MakePolicyFactory("DARP"),
                              config.scheduler, config.page_policy,
                              config.subarrays);
  const CommandLog& log = controller.EnableAudit();
  controller.Run(requests, horizon);
  ASSERT_GT(log.size(), 2 * CommandLog::kChunkSize);
  const std::vector<Command> expected = CommandsOf(log);
  const Command* tail = &log[log.size() - 1];
  const CommandLog taken = controller.TakeAuditLog();
  EXPECT_TRUE(log.empty());
  EXPECT_TRUE(taken.commands() == expected);
  EXPECT_EQ(&taken[taken.size() - 1], tail);
}

TEST(DenseAuditor, CrowdedFawWindowMatchesReference) {
  // Twelve ACTs and three REFpb of one rank inside one tFAW window, two
  // per cycle: the window holds more than four only after violations, and
  // every one of them stays in it until it expires (the tFAW detail quotes
  // the oldest).  Later ACTs meet the window as it drains.
  const TimingTable table = MakeTimingTable(TimingPreset::kDdr4_2400);
  ASSERT_GT(table.t_faw, 8u);
  std::vector<Command> commands;
  for (std::size_t i = 0; i < 15; ++i) {
    Command c;
    c.at = 1000 + i / 2;
    c.bank = static_cast<std::uint32_t>(i % 16);
    c.row = static_cast<std::uint32_t>(i);
    if (i % 5 == 4) {
      c.kind = CommandKind::kRefresh;
      c.granularity = RefreshGranularity::kPerBank;
      c.trfc = 40;
    }
    commands.push_back(c);
  }
  for (std::size_t i = 0; i < 6; ++i) {
    Command c;
    c.at = 1000 + table.t_faw + 3 * i;
    c.bank = static_cast<std::uint32_t>(i % 16);
    c.row = 100;
    commands.push_back(c);
  }
  const CommandLog log = LogOf(commands);
  const AuditReport expected = ReferenceAudit(table, log);
  const AuditReport actual = TimingAuditor(table).Audit(log);
  EXPECT_EQ(actual.ToText("faw"), expected.ToText("faw"));
  const auto faw = std::count_if(
      actual.violations.begin(), actual.violations.end(),
      [](const TimingViolation& v) { return v.rule == "tFAW"; });
  EXPECT_GE(faw, 11);
}

/// Proposes nothing and never checks `now`, so one controller can run
/// twice from cycle 0.
class IdlePolicy : public RefreshPolicy {
 public:
  explicit IdlePolicy(std::size_t rows) : rows_(rows) {}
  void Propose(Cycles, const DemandView&,
               std::vector<RefreshProposal>& out) override {
    out.clear();
  }
  void OnGrant(const RefreshProposal&, Cycles) override {}
  std::string Name() const override { return "idle"; }
  std::size_t rows() const override { return rows_; }

 private:
  std::size_t rows_;
};

TEST(AuditHandoff, ControllerKeepsLoggingAfterTake) {
  TimingTable table = MakeTimingTable(TimingPreset::kDdr4_2400);
  const std::size_t rows = 64;
  MemoryController controller(table, rows, [rows] {
    return std::make_unique<IdlePolicy>(rows);
  });
  EXPECT_TRUE(controller.TakeAuditLog().empty());  // before EnableAudit
  EXPECT_EQ(controller.audit_log(), nullptr);

  CommandLog& log = controller.EnableAudit();
  const std::vector<Request> requests = {{10, 2, 5, 0, RequestType::kRead},
                                         {20, 9, 7, 0, RequestType::kWrite}};
  controller.Run(requests, 1000);
  const CommandLog first = controller.TakeAuditLog();
  EXPECT_FALSE(first.empty());
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(controller.audit_log(), &log);
  EXPECT_EQ(&controller.EnableAudit(), &log);  // still idempotent

  controller.Run(requests, 1000);
  const std::size_t second = log.size();
  EXPECT_GT(second, 0u);
  EXPECT_EQ(controller.TakeAuditLog().size(), second);
  EXPECT_TRUE(log.empty());
}

// ---------------------------------------------------------------------------
// Narrow fields never truncate
// ---------------------------------------------------------------------------

constexpr std::uint64_t kMax32 = std::numeric_limits<std::uint32_t>::max();
constexpr std::size_t kMax16 = std::numeric_limits<std::uint16_t>::max();

std::string ErrorOf(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const ConfigError& error) {
    return error.what();
  }
  return "";
}

TEST(AuditLimits, CommandIsA24ByteRecord) {
  EXPECT_EQ(sizeof(Command), 24u);
}

TEST(AuditLimits, SetAuditRejectsRowsAboveUint32) {
  const TimingParams timing;
  CommandLog log;
  Bank fits(kMax32, timing);
  EXPECT_NO_THROW(fits.SetAudit(&log, 0));
  Bank wide(kMax32 + 1, timing);
  EXPECT_NO_THROW(wide.SetAudit(nullptr, 0));  // not logging: no limit
  const std::string error = ErrorOf([&] { wide.SetAudit(&log, 0); });
  EXPECT_NE(error.find("4294967296 rows"), std::string::npos) << error;
}

TEST(AuditLimits, SetAuditRejectsSubarraysAboveUint16) {
  const TimingParams timing;
  CommandLog log;
  Bank fits(kMax16, timing, RowBufferPolicy::kOpenPage, kMax16);
  EXPECT_NO_THROW(fits.SetAudit(&log, 0));
  Bank wide(kMax16 + 1, timing, RowBufferPolicy::kOpenPage, kMax16 + 1);
  const std::string error = ErrorOf([&] { wide.SetAudit(&log, 0); });
  EXPECT_NE(error.find("65536 subarrays"), std::string::npos) << error;
}

TEST(AuditLimits, SetAuditRejectsBankIndexAboveUint32) {
  CommandLog log;
  Bank bank(8, TimingParams{});
  EXPECT_NO_THROW(bank.SetAudit(&log, kMax32));
  const std::string error = ErrorOf([&] { bank.SetAudit(&log, kMax32 + 1); });
  EXPECT_NE(error.find("bank index 4294967296"), std::string::npos) << error;
}

TEST(AuditLimits, LoggedRefreshRejectsTrfcAboveUint32) {
  CommandLog log;
  Bank bank(8, TimingParams{});
  RefreshOp op;
  op.row = 3;
  op.trfc = kMax32 + 1;
  // Unlogged, the wide tRFC is legal.
  EXPECT_EQ(bank.ExecuteRefresh(op, 0), kMax32 + 1);

  Bank logged(8, TimingParams{});
  logged.SetAudit(&log, 0);
  const std::string error = ErrorOf([&] { logged.ExecuteRefresh(op, 0); });
  EXPECT_NE(error.find("tRFC 4294967296"), std::string::npos) << error;
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(logged.stats().refreshes(), 0u);

  op.trfc = kMax32;
  EXPECT_EQ(logged.ExecuteRefresh(op, 0), kMax32);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log.commands()[0].trfc, kMax32);
}

TEST(AuditLimits, AuditRejectsBankOutsideTopology) {
  const TimingTable table = MakeTimingTable(TimingPreset::kDdr4_2400);
  const TimingAuditor auditor(table);
  Command c;
  c.bank = static_cast<std::uint32_t>(table.topology.TotalBanks() - 1);
  CommandLog log;
  log.Append(c);
  EXPECT_NO_THROW(auditor.Audit(log));
  c.bank = static_cast<std::uint32_t>(table.topology.TotalBanks());
  log.Append(c);
  const std::string error = ErrorOf([&] { (void)auditor.Audit(log); });
  EXPECT_NE(error.find("bank index 32 out of range (32 banks)"),
            std::string::npos)
      << error;
}

}  // namespace
}  // namespace vrl::dram
