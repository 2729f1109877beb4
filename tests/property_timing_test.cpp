// Property-based timing conformance: randomized request streams pushed
// through every timing preset must replay violation-free under the passive
// TimingAuditor, byte-for-byte deterministically — including across
// ParallelMap thread counts (1/2/8), the determinism contract CI relies on
// when it diffs audit artifacts.  The single-bank-equivalent preset must
// additionally reproduce the flat controller's statistics exactly.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "dram/auditor.hpp"
#include "dram/controller.hpp"
#include "dram/refresh_policy.hpp"
#include "dram/timing_table.hpp"
#include "dram/topology.hpp"
#include "retention/profile.hpp"

#include "grant_all.hpp"

namespace vrl::dram {
namespace {

TimingParams FastTiming() {
  TimingParams t;
  t.t_refi = 1000;
  t.t_refw = 64000;
  return t;
}

retention::BinningResult UniformBinning(std::size_t rows, double retention) {
  const retention::RetentionProfile profile(
      std::vector<double>(rows, retention));
  return retention::BinRows(profile, retention::StandardBinPeriods());
}

PolicyFactory JedecFactory(std::size_t rows, Cycles window) {
  return [=]() {
    return std::make_unique<FullLatencyPolicy>(Jedec(rows, window, 26));
  };
}

/// A VRL factory so the audited streams carry *variable* refresh latencies —
/// the paper's point, and the interesting case for refresh-occupancy checks.
PolicyFactory VrlFactory(std::size_t rows) {
  const auto plan = MakeRefreshPlan(UniformBinning(rows, 1.0), 2.5e-9,
                                    std::vector<std::size_t>(rows, 3));
  return [=]() { return std::make_unique<VrlPolicy>(plan, 26, 15); };
}

std::vector<Request> RandomStream(std::size_t n, std::size_t banks,
                                  std::size_t rows, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Request> requests;
  requests.reserve(n);
  Cycles arrival = 0;
  for (std::size_t i = 0; i < n; ++i) {
    arrival += static_cast<Cycles>(rng.UniformInt(40));
    Request r;
    r.arrival = arrival;
    r.bank = static_cast<std::size_t>(rng.UniformInt(banks));
    r.row = static_cast<std::size_t>(rng.UniformInt(rows));
    r.column = static_cast<std::size_t>(rng.UniformInt(64));
    r.type = rng.UniformInt(2) == 0 ? RequestType::kRead : RequestType::kWrite;
    requests.push_back(r);
  }
  return requests;
}

/// One audited run: build the preset's table on fast core timings, simulate
/// a random stream, replay the command log, return the audit text.
std::string RunAudited(TimingPreset preset, std::uint64_t seed,
                       bool vrl_policy = false, AuditReport* out = nullptr) {
  TimingTable table = MakeTimingTable(preset);
  table.core = FastTiming();
  const std::size_t rows = 16;
  MemoryController controller(
      table, rows,
      vrl_policy ? VrlFactory(rows) : JedecFactory(rows, table.core.t_refw),
      SchedulerKind::kFrFcfs);
  controller.EnableAudit();
  const auto requests =
      RandomStream(300, table.topology.TotalBanks(), rows, seed);
  controller.Run(requests, 2 * table.core.t_refw);
  const TimingAuditor auditor(table);
  AuditReport report = auditor.Audit(*controller.audit_log());
  if (out != nullptr) {
    *out = report;
  }
  return report.ToText(PresetName(preset));
}

// ---------------------------------------------------------------------------
// Zero violations on every preset, for every policy flavor
// ---------------------------------------------------------------------------

class PresetConformance : public ::testing::TestWithParam<TimingPreset> {};

TEST_P(PresetConformance, RandomStreamsAuditClean) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    AuditReport report;
    RunAudited(GetParam(), seed, /*vrl_policy=*/false, &report);
    EXPECT_TRUE(report.clean())
        << PresetName(GetParam()) << " seed=" << seed << "\n"
        << report.ToText(PresetName(GetParam()));
    EXPECT_GT(report.commands_checked, 300u);
  }
}

TEST_P(PresetConformance, VariableLatencyRefreshAuditsClean) {
  AuditReport report;
  RunAudited(GetParam(), 17, /*vrl_policy=*/true, &report);
  EXPECT_TRUE(report.clean()) << report.ToText(PresetName(GetParam()));
  EXPECT_GT(report.commands_checked, 0u);
}

TEST_P(PresetConformance, AuditTextIsDeterministic) {
  EXPECT_EQ(RunAudited(GetParam(), 5), RunAudited(GetParam(), 5));
}

INSTANTIATE_TEST_SUITE_P(AllPresets, PresetConformance,
                         ::testing::ValuesIn(kAllTimingPresets),
                         [](const auto& info) {
                           return PresetName(info.param);
                         });

// ---------------------------------------------------------------------------
// Thread-count invariance: the audit artifact CI diffs must not depend on
// how many workers produced it
// ---------------------------------------------------------------------------

TEST(ThreadInvariance, AuditLogsByteIdenticalAcross1And2And8Threads) {
  const TimingPreset presets[] = {TimingPreset::kDdr3_1600,
                                  TimingPreset::kDdr4_2400,
                                  TimingPreset::kLpddr4_3200};
  const std::size_t jobs = 6;
  const auto sweep = [&](std::size_t threads) {
    const auto texts = ParallelMap(
        "conformance_sweep", jobs,
        [&](std::size_t i) {
          return RunAudited(presets[i % 3], 100 + i, i % 2 == 1);
        },
        threads);
    std::string joined;
    for (const auto& text : texts) {
      joined += text;
    }
    return joined;
  };
  const std::string serial = sweep(1);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(sweep(2), serial);
  EXPECT_EQ(sweep(8), serial);
}

// ---------------------------------------------------------------------------
// Single-bank-equivalent ≡ flat model, statistic for statistic
// ---------------------------------------------------------------------------

TEST(SingleBankEquivalent, ReproducesFlatControllerStatsExactly) {
  const std::size_t banks = 8;
  const std::size_t rows = 16;
  const TimingParams timing = FastTiming();
  for (const std::uint64_t seed : {11ULL, 12ULL}) {
    const auto requests = RandomStream(400, banks, rows, seed);
    MemoryController flat(banks, rows, timing,
                          JedecFactory(rows, timing.t_refw),
                          SchedulerKind::kFrFcfs);
    TimingTable table =
        MakeTimingTable(TimingPreset::kSingleBankEquivalent, banks);
    table.core = timing;
    MemoryController sbe(table, rows, JedecFactory(rows, timing.t_refw),
                         SchedulerKind::kFrFcfs);
    EXPECT_FALSE(sbe.hierarchical());
    EXPECT_EQ(sbe.constraint_engine(), nullptr);

    const Cycles horizon = 2 * timing.t_refw;
    const auto a = flat.Run(requests, horizon);
    const auto b = sbe.Run(requests, horizon);
    ASSERT_EQ(a.per_bank.size(), b.per_bank.size());
    EXPECT_EQ(a.simulated_cycles, b.simulated_cycles);
    for (std::size_t i = 0; i < a.per_bank.size(); ++i) {
      EXPECT_EQ(a.per_bank[i].reads, b.per_bank[i].reads) << "bank " << i;
      EXPECT_EQ(a.per_bank[i].writes, b.per_bank[i].writes) << "bank " << i;
      EXPECT_EQ(a.per_bank[i].row_hits, b.per_bank[i].row_hits)
          << "bank " << i;
      EXPECT_EQ(a.per_bank[i].row_misses, b.per_bank[i].row_misses)
          << "bank " << i;
      EXPECT_EQ(a.per_bank[i].activations, b.per_bank[i].activations)
          << "bank " << i;
      EXPECT_EQ(a.per_bank[i].full_refreshes, b.per_bank[i].full_refreshes)
          << "bank " << i;
      EXPECT_EQ(a.per_bank[i].refresh_busy_cycles,
                b.per_bank[i].refresh_busy_cycles)
          << "bank " << i;
      EXPECT_EQ(a.per_bank[i].total_request_latency,
                b.per_bank[i].total_request_latency)
          << "bank " << i;
      EXPECT_EQ(a.per_bank[i].last_completion, b.per_bank[i].last_completion)
          << "bank " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Fuzzed timing tables: arbitrary (valid) constraint sets stay conformant
// ---------------------------------------------------------------------------

TEST(FuzzedTables, RandomConstraintSetsAuditClean) {
  Rng rng(0xF00D);
  for (int iteration = 0; iteration < 8; ++iteration) {
    TimingTable table;
    table.core = FastTiming();
    table.topology = {1 + rng.UniformInt(2), 1 + rng.UniformInt(2),
                      1 + rng.UniformInt(2), 1 + rng.UniformInt(3)};
    table.t_rrd_s = static_cast<Cycles>(rng.UniformInt(5));
    table.t_rrd_l = table.t_rrd_s + static_cast<Cycles>(rng.UniformInt(3));
    table.t_ccd_s = static_cast<Cycles>(rng.UniformInt(4));
    table.t_ccd_l = table.t_ccd_s + static_cast<Cycles>(rng.UniformInt(3));
    table.t_faw = rng.UniformInt(2) == 0
                      ? 0
                      : table.t_rrd_l + static_cast<Cycles>(rng.UniformInt(16));
    table.t_rtrs = static_cast<Cycles>(rng.UniformInt(4));
    table.per_channel_bus = rng.UniformInt(2) == 0;
    ASSERT_NO_THROW(table.Validate());

    const std::size_t rows = 8;
    MemoryController controller(table, rows,
                                JedecFactory(rows, table.core.t_refw),
                                SchedulerKind::kFcfs);
    controller.EnableAudit();
    const auto requests = RandomStream(
        200, table.topology.TotalBanks(), rows, 0x5EED + iteration);
    controller.Run(requests, table.core.t_refw);
    const TimingAuditor auditor(table);
    const AuditReport report = auditor.Audit(*controller.audit_log());
    EXPECT_TRUE(report.clean())
        << "iteration " << iteration << "\n"
        << report.ToText("fuzz");
  }
}

// ---------------------------------------------------------------------------
// Hierarchy engagement: the constraints actually bind under contention
// ---------------------------------------------------------------------------

TEST(Hierarchy, ConstraintsBindUnderSameRankContention) {
  TimingTable table = MakeTimingTable(TimingPreset::kDdr3_1600);
  table.core = FastTiming();
  const std::size_t rows = 16;
  MemoryController controller(table, rows,
                              JedecFactory(rows, table.core.t_refw),
                              SchedulerKind::kFcfs);
  EXPECT_TRUE(controller.hierarchical());
  ASSERT_NE(controller.constraint_engine(), nullptr);

  // Row-conflict storm confined to rank 0: every request a miss, all eight
  // banks activating together — tRRD/tFAW and the shared bus must bind.
  std::vector<Request> requests;
  for (std::size_t i = 0; i < 400; ++i) {
    Request r;
    r.arrival = static_cast<Cycles>(i);
    r.bank = i % table.topology.BanksPerRank();  // rank 0 only
    r.row = i % rows;
    requests.push_back(r);
  }
  controller.Run(requests, table.core.t_refw);
  const ConstraintStats& stats = controller.constraint_engine()->stats();
  EXPECT_GT(stats.TotalStalls(), 0u);
  EXPECT_GT(stats.trrd_stalls + stats.tfaw_stalls, 0u);
  EXPECT_GT(stats.bus_stalls + stats.trtrs_stalls, 0u);

  const HierarchyActivity& activity =
      controller.constraint_engine()->activity();
  ASSERT_EQ(activity.rank_activations.size(), 2u);
  EXPECT_GT(activity.rank_activations[0], 0u);
  EXPECT_EQ(activity.rank_activations[1], 0u);  // rank 1 untouched
}

TEST(Hierarchy, EnableAuditIsIdempotentAndLogsRefreshes) {
  TimingTable table = MakeTimingTable(TimingPreset::kLpddr4_3200);
  table.core = FastTiming();
  const std::size_t rows = 8;
  MemoryController controller(table, rows,
                              JedecFactory(rows, table.core.t_refw));
  CommandLog& log = controller.EnableAudit();
  EXPECT_EQ(&controller.EnableAudit(), &log);
  controller.Run({}, 2 * table.core.t_refw);
  std::size_t refreshes = 0;
  for (const Command& c : log.commands()) {
    if (c.kind == CommandKind::kRefresh) {
      ++refreshes;
      EXPECT_GT(c.trfc, 0u);
    }
  }
  EXPECT_GT(refreshes, 0u);
}

// ---------------------------------------------------------------------------
// ACTIVATE floors: the engine's binary-search walk equals the quadratic scan
// ---------------------------------------------------------------------------

/// The per-rank ACT history the ConstraintEngine keeps, recorded and pruned
/// the same way, with the floors found by the original quadratic scan:
/// every candidate cycle recounts every recorded ACT.
class QuadraticActivateFloors {
 public:
  explicit QuadraticActivateFloors(const TimingTable& table)
      : table_(table), ranks_(table.topology.TotalRanks()) {
    for (Rank& rank : ranks_) {
      rank.last_act_by_group.assign(table.topology.bank_groups_per_rank, 0);
      rank.act_seen.assign(table.topology.bank_groups_per_rank, false);
    }
  }

  /// (tRRD floor, tFAW floor) of an ACTIVATE at `at`.
  std::pair<Cycles, Cycles> Floors(const BankAddress& addr, Cycles at) const {
    const Rank& rank = ranks_[GlobalRank(addr)];
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
    Cycles faw_floor = trrd_floor;
    if (table_.t_faw != 0 && rank.recent_acts.size() >= 4) {
      const auto legal = [&](Cycles t) {
        std::size_t in_window = 0;
        for (const Cycles a : rank.recent_acts) {
          if (a <= t && a + table_.t_faw > t) {
            ++in_window;
          }
        }
        return in_window <= 3;
      };
      Cycles best = 0;
      bool found = false;
      const auto consider = [&](Cycles t) {
        if (t >= trrd_floor && (!found || t < best) && legal(t)) {
          best = t;
          found = true;
        }
      };
      consider(trrd_floor);
      for (const Cycles a : rank.recent_acts) {
        consider(a + table_.t_faw);
      }
      faw_floor = found ? best : trrd_floor;
    }
    return {trrd_floor, faw_floor};
  }

  void Record(const BankAddress& addr, Cycles at) {
    Rank& rank = ranks_[GlobalRank(addr)];
    Cycles& last = rank.last_act_by_group[addr.bank_group];
    last = rank.act_seen[addr.bank_group] ? std::max(last, at) : at;
    rank.act_seen[addr.bank_group] = true;
    if (table_.t_faw == 0) {
      return;
    }
    rank.recent_acts.insert(std::upper_bound(rank.recent_acts.begin(),
                                             rank.recent_acts.end(), at),
                            at);
    const Cycles newest = rank.recent_acts.back();
    if (newest > 2 * table_.t_faw) {
      rank.recent_acts.erase(
          rank.recent_acts.begin(),
          std::lower_bound(rank.recent_acts.begin(), rank.recent_acts.end(),
                           newest - 2 * table_.t_faw));
    }
  }

 private:
  struct Rank {
    std::vector<Cycles> last_act_by_group;
    std::vector<bool> act_seen;
    std::vector<Cycles> recent_acts;  ///< Sorted ascending.
  };

  std::size_t GlobalRank(const BankAddress& addr) const {
    return addr.channel * table_.topology.ranks_per_channel + addr.rank;
  }

  const TimingTable& table_;
  std::vector<Rank> ranks_;
};

TEST(ActivateFloors, BinarySearchMatchesQuadraticScan) {
  for (const TimingPreset preset :
       {TimingPreset::kDdr3_1600, TimingPreset::kDdr4_2400,
        TimingPreset::kLpddr4_3200}) {
    for (const bool zero_faw : {false, true}) {
      SCOPED_TRACE(PresetName(preset) + (zero_faw ? " tFAW=0" : ""));
      TimingTable table = MakeTimingTable(preset);
      ASSERT_NE(table.t_faw, 0u);
      if (zero_faw) {
        table.t_faw = 0;
      }
      ConstraintEngine engine(table);
      QuadraticActivateFloors reference(table);
      ConstraintStats expected;
      Rng rng(zero_faw ? 17 : 5);
      // ACTs arrive faster than four per tFAW window, probed and recorded
      // slightly out of cycle order, as the controller's interleaving of
      // banks by decision instant produces.
      const Cycles spread = MakeTimingTable(preset).t_faw;
      Cycles clock = 2 * spread;  // keeps every cycle below positive
      for (int i = 0; i < 4000; ++i) {
        const BankAddress addr = DecomposeBank(
            table.topology, rng.UniformInt(table.topology.TotalBanks()));
        clock += rng.UniformInt(table.t_rrd_s + 1);
        const Cycles at = clock - rng.UniformInt(spread);
        const auto [trrd_floor, faw_floor] = reference.Floors(addr, at);
        const Cycles want = std::max(trrd_floor, faw_floor);
        EXPECT_EQ(engine.PeekActivate(addr, at), want);
        EXPECT_EQ(engine.EarliestActivate(addr, at), want);
        if (want > at) {
          if (faw_floor > trrd_floor) {
            ++expected.tfaw_stalls;
            expected.tfaw_stall_cycles += want - at;
          } else {
            ++expected.trrd_stalls;
            expected.trrd_stall_cycles += want - at;
          }
        }
        EXPECT_EQ(engine.stats().tfaw_stalls, expected.tfaw_stalls);
        EXPECT_EQ(engine.stats().tfaw_stall_cycles,
                  expected.tfaw_stall_cycles);
        EXPECT_EQ(engine.stats().trrd_stalls, expected.trrd_stalls);
        EXPECT_EQ(engine.stats().trrd_stall_cycles,
                  expected.trrd_stall_cycles);
        // Mostly issued at the floor; now and then recorded earlier.
        const Cycles issued =
            rng.UniformInt(8) == 0 ? want - rng.UniformInt(spread) : want;
        engine.RecordActivate(addr, issued);
        reference.Record(addr, issued);
      }
      if (zero_faw) {
        EXPECT_EQ(expected.tfaw_stalls, 0u);
      } else {
        EXPECT_GT(expected.tfaw_stalls, 100u);
      }
    }
  }
}

}  // namespace
}  // namespace vrl::dram
