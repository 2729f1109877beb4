// Refresh-policy tournament: the Fig. 4 evaluation grid (13 PARSEC
// benchmarks + bgsave) replayed under every registered refresh policy —
// the legacy family (JEDEC, RAIDR, VRL, VRL-Access) and the
// scheduler-coupled family (VRL-Skip, DARP, SARP) — across the hardware
// timing presets, with command logging on and every run's stream audited
// by dram::TimingAuditor (REFpb activation windows included).
//
// Each preset runs one task per workload (core::RunWorkloadGrid, over
// VRL_THREADS) that draws the trace, runs every policy's leg over it into
// its own slot and frees it; the slots fold serially in policy and suite
// order, so the report and the audit log match at any thread count.
//
// Reported per (preset, policy): average demand-access latency, refresh
// counts, energy (power::PowerModel), and the refresh-command lineage
// (proposals, grants, deferrals, deadline-forced grants, charge-aware
// skips, activation-driven MPRSF resets).  DARP and SARP run the base
// 64 ms all-rows schedule — the same refresh *rate* as JEDEC.  Their
// latency ratio against JEDEC does not isolate what deferral and subarray
// parallelism buy: DARP's win is its REFpb closing every open row of the
// bank, so the next demand skips its precharge (a closed-page effect).
// With every policy closed-page, DARP is 1.037x JEDEC on DDR4
// (EXPERIMENTS.md, docs/POLICIES.md).
//
//   --preset <name>     run one preset; default sweeps DDR3_1600,
//                       DDR4_2400 and LPDDR4_3200
//   --windows <n>       base refresh windows per simulation (default 4,
//                       at least 1)
//   --workloads <n>     first n suite workloads only (0 = all; at most
//                       the suite's 14; CI's reduced grid uses a small n)
//   --subarrays <n>     subarrays per bank (default 4 — SARP's parallelism
//                       needs more than one; at least 1)
//   --audit-out <path>  write the merged audit logs (CI artifact, checked
//                       by scripts/check_timing_audit.py)
//   --gate-latency      exit non-zero unless DARP and SARP beat JEDEC's
//                       average demand latency on every preset (holds
//                       with the default open-page row buffers only)
//
// Exit code: 1 on any timing violation, 2 on a failed latency gate, a
// malformed flag or a configuration the library rejects (one `error:`
// line).

#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench/reporting.hpp"
#include "common/error.hpp"
#include "core/experiments.hpp"
#include "core/vrl_system.hpp"
#include "dram/auditor.hpp"
#include "dram/policy_registry.hpp"
#include "dram/timing_table.hpp"
#include "power/power_model.hpp"
#include "telemetry/recorder.hpp"
#include "trace/synthetic.hpp"

namespace {

/// Per (preset, policy) accumulation over the workload grid; one leg's
/// result is an accumulation of one simulation.
struct PolicyAgg {
  std::size_t sims = 0;
  double latency_sum = 0.0;  ///< avg latency x requests, summed.
  std::uint64_t requests = 0;
  std::uint64_t full = 0;
  std::uint64_t partial = 0;
  double refresh_nj = 0.0;
  double total_nj = 0.0;
  // Lineage: where each refresh decision came from.
  std::uint64_t proposals = 0;
  std::uint64_t granted = 0;
  std::uint64_t deferred = 0;
  std::uint64_t urgent_grants = 0;
  std::uint64_t skipped = 0;
  std::uint64_t mprsf_resets = 0;
  std::size_t commands_checked = 0;
  std::vector<vrl::dram::TimingViolation> violations;  ///< Workload order.

  double AvgLatency() const {
    return requests == 0 ? 0.0 : latency_sum / static_cast<double>(requests);
  }

  /// Adds one leg's result (its violations move).
  void Add(PolicyAgg&& leg) {
    sims += leg.sims;
    latency_sum += leg.latency_sum;
    requests += leg.requests;
    full += leg.full;
    partial += leg.partial;
    refresh_nj += leg.refresh_nj;
    total_nj += leg.total_nj;
    proposals += leg.proposals;
    granted += leg.granted;
    deferred += leg.deferred;
    urgent_grants += leg.urgent_grants;
    skipped += leg.skipped;
    mprsf_resets += leg.mprsf_resets;
    commands_checked += leg.commands_checked;
    for (auto& v : leg.violations) {
      violations.push_back(std::move(v));
    }
  }
};

std::uint64_t CounterOf(const vrl::telemetry::MetricsSnapshot& snap,
                        const std::string& name) {
  const auto it = snap.metrics.find(name);
  return it == snap.metrics.end() ? 0 : it->second.count;
}

std::string Fixed(double value, int decimals) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, value);
  return buf;
}

/// The tournament's own flags.
struct TournamentFlags {
  std::string audit_out;
  std::size_t windows = 4;
  std::size_t max_workloads = 0;
  std::size_t subarrays = 4;
  bool gate_latency = false;
};

/// Runs the grid and emits the report; returns the exit code.
int RunTournament(const vrl::bench::ReportOptions& report_options,
                  const TournamentFlags& flags) {
  using namespace vrl;

  std::vector<dram::TimingPreset> presets = {dram::TimingPreset::kDdr3_1600,
                                             dram::TimingPreset::kDdr4_2400,
                                             dram::TimingPreset::kLpddr4_3200};
  if (report_options.preset) {
    presets = {*report_options.preset};
  }

  // Every registered policy competes; names come from the registry so a
  // newly registered policy joins the tournament automatically.
  std::vector<std::string> policy_names;
  for (const dram::PolicyInfo& info : dram::PolicyRegistry::Global().entries()) {
    policy_names.push_back(info.name);
  }

  auto workloads = trace::EvaluationSuite();
  if (flags.max_workloads > workloads.size()) {
    throw ConfigError("--workloads " + std::to_string(flags.max_workloads) +
                      " exceeds the suite's " +
                      std::to_string(workloads.size()) + " workloads");
  }
  if (flags.max_workloads != 0) {
    workloads.resize(flags.max_workloads);
  }

  bench::Report report("refresh_tournament");
  report.AddMeta("windows", flags.windows);
  report.AddMeta("workloads", workloads.size());
  report.AddMeta("subarrays", flags.subarrays);
  report.AddMeta("policies", dram::PolicyRegistry::Global().NameList());
  // Rows are buffered and the tables added last: Report::AddTable returns a
  // reference that a later AddTable call may invalidate.
  std::vector<std::vector<std::string>> tournament_rows;
  std::vector<std::vector<std::string>> lineage_rows;

  std::string audit_text;
  std::size_t total_violations = 0;
  bool gate_failed = false;
  for (const dram::TimingPreset preset : presets) {
    core::VrlConfig config;
    config.ApplyPreset(preset);
    config.subarrays = flags.subarrays;
    const core::VrlSystem system(config);
    const dram::TimingAuditor auditor(config.TimingTableFor());
    const power::PowerModel power_model({}, config.tech.clock_period_s);
    const Cycles horizon = system.HorizonForWindows(flags.windows);

    // One task per workload runs every policy's leg over its draw into
    // slot [workload][policy], each leg with its own recorder and command
    // log, audited inside the leg.
    std::vector<std::vector<PolicyAgg>> legs(workloads.size());
    core::RunWorkloadGrid(
        system, workloads, horizon, nullptr, 0,
        [&](std::size_t w, const dram::RequestStreams& streams,
            telemetry::Recorder*) {
          legs[w].resize(policy_names.size());
          for (std::size_t p = 0; p < policy_names.size(); ++p) {
            telemetry::Recorder recorder;
            dram::CommandLog log;
            const auto stats = system.SimulateStreams(
                policy_names[p], streams, horizon, &recorder, &log);
            dram::AuditReport audited = auditor.Audit(log);

            PolicyAgg& leg = legs[w][p];
            leg.sims = 1;
            leg.commands_checked = audited.commands_checked;
            leg.violations = std::move(audited.violations);
            const std::uint64_t served =
                stats.TotalReads() + stats.TotalWrites();
            leg.latency_sum =
                stats.AverageRequestLatency() * static_cast<double>(served);
            leg.requests = served;
            leg.full = stats.TotalFullRefreshes();
            leg.partial = stats.TotalPartialRefreshes();
            const auto energy = power_model.Compute(stats);
            leg.refresh_nj = energy.refresh_nj;
            leg.total_nj = energy.Total();

            const auto snap = recorder.Snapshot();
            leg.proposals = CounterOf(snap, "dram.refresh.proposals");
            leg.granted = CounterOf(snap, "dram.refresh.granted");
            leg.deferred = CounterOf(snap, "dram.refresh.deferred");
            leg.urgent_grants = CounterOf(snap, "dram.refresh.urgent_grants");
            leg.skipped = CounterOf(snap, "policy.skipped_refreshes");
            leg.mprsf_resets = CounterOf(snap, "policy.mprsf_resets");
          }
        });

    // Folded serially: a policy's sums run over the workloads in suite
    // order and its violations merge in policy order, so the report and
    // the audit log read as if each policy ran its grid alone.
    dram::AuditReport merged;
    std::map<std::string, PolicyAgg> aggs;
    for (std::size_t p = 0; p < policy_names.size(); ++p) {
      for (std::vector<PolicyAgg>& row : legs) {
        aggs[policy_names[p]].Add(std::move(row[p]));
      }
    }
    for (const std::string& name : policy_names) {
      PolicyAgg& agg = aggs[name];
      tournament_rows.push_back(
          {dram::PresetName(preset), name, std::to_string(agg.sims),
           Fixed(agg.AvgLatency(), 2), std::to_string(agg.full),
           std::to_string(agg.partial), Fixed(agg.refresh_nj, 1),
           Fixed(agg.total_nj, 1), std::to_string(agg.violations.size())});
      lineage_rows.push_back(
          {dram::PresetName(preset), name, std::to_string(agg.proposals),
           std::to_string(agg.granted), std::to_string(agg.deferred),
           std::to_string(agg.urgent_grants), std::to_string(agg.skipped),
           std::to_string(agg.mprsf_resets)});
      merged.commands_checked += agg.commands_checked;
      for (auto& v : agg.violations) {
        merged.violations.push_back(std::move(v));
      }
    }

    // Latency gates: out-of-order deferral (DARP) and subarray parallelism
    // (SARP) must beat the blind JEDEC baseline at the same refresh rate.
    const double jedec = aggs["JEDEC"].AvgLatency();
    for (const std::string& challenger : {"DARP", "SARP"}) {
      const double ratio =
          jedec == 0.0 ? 1.0 : aggs[challenger].AvgLatency() / jedec;
      report.AddMeta(dram::PresetName(preset) + "." + challenger +
                         "_vs_jedec_latency",
                     Fixed(ratio, 4));
      if (ratio >= 1.0) {
        gate_failed = true;
      }
    }

    total_violations += merged.violations.size();
    audit_text += merged.ToText(dram::PresetName(preset));
  }

  {
    TextTable& table = report.AddTable(
        "tournament",
        {"preset", "policy", "sims", "avg_latency", "full_ref",
         "partial_ref", "refresh_nJ", "total_nJ", "violations"});
    for (auto& row : tournament_rows) {
      table.AddRow(std::move(row));
    }
  }
  {
    TextTable& lineage = report.AddTable(
        "lineage", {"preset", "policy", "proposals", "granted", "deferred",
                    "urgent_grants", "skipped", "mprsf_resets"});
    for (auto& row : lineage_rows) {
      lineage.AddRow(std::move(row));
    }
  }
  report.AddMeta("total_violations", total_violations);
  report.AddMeta("clean", total_violations == 0 ? "yes" : "NO");
  report.AddMeta("latency_gate", gate_failed ? (flags.gate_latency
                                                     ? "FAIL"
                                                     : "fail (not gated)")
                                              : "pass");
  if (!flags.audit_out.empty()) {
    std::ofstream out(flags.audit_out, std::ios::binary);
    if (!out) {
      throw ConfigError("refresh_tournament: cannot open '" +
                        flags.audit_out + "'");
    }
    out << audit_text;
  }
  report.Emit(report_options, std::cout);
  if (total_violations != 0) {
    return 1;
  }
  return flags.gate_latency && gate_failed ? 2 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace vrl;

  TournamentFlags flags;
  const auto report_options = bench::ParseFlags(
      argc, argv, bench::kOutput | bench::kPreset,
      {{"--audit-out",
        [&flags](const std::string& path) {
          bench::CheckOutputPath("--audit-out", path);
          flags.audit_out = path;
        }},
       {"--windows", &flags.windows, bench::kPositive},
       {"--workloads", &flags.max_workloads},
       {"--subarrays", &flags.subarrays, bench::kPositive},
       {"--gate-latency", &flags.gate_latency}});
  try {
    return RunTournament(report_options, flags);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  }
}
