// Refresh-policy tournament: the Fig. 4 evaluation grid (13 PARSEC
// benchmarks + bgsave) replayed under every registered refresh policy —
// the legacy family (JEDEC, RAIDR, VRL, VRL-Access) and the
// scheduler-coupled family (VRL-Skip, DARP, SARP) — across the hardware
// timing presets, with command logging on and every run's stream audited
// by dram::TimingAuditor (REFpb activation windows included).
//
// Reported per (preset, policy): average demand-access latency, refresh
// counts, energy (power::PowerModel), and the refresh-command lineage
// (proposals, grants, deferrals, deadline-forced grants, charge-aware
// skips, activation-driven MPRSF resets).  DARP and SARP run the base
// 64 ms all-rows schedule — the same refresh *rate* as JEDEC — so their
// latency ratio against JEDEC isolates what out-of-order deferral and
// subarray parallelism buy at the retention tail.
//
//   --preset <name>     run one preset; default sweeps DDR3_1600,
//                       DDR4_2400 and LPDDR4_3200
//   --windows <n>       base refresh windows per simulation (default 4)
//   --workloads <n>     first n suite workloads only (0 = all; CI's
//                       reduced grid uses a small n)
//   --subarrays <n>     subarrays per bank (default 4 — SARP's parallelism
//                       needs more than one)
//   --audit-out <path>  write the merged audit logs (CI artifact, checked
//                       by scripts/check_timing_audit.py)
//   --gate-latency      exit non-zero unless DARP and SARP beat JEDEC's
//                       average demand latency on every preset
//
// Exit code: 1 on any timing violation, 2 on a failed latency gate or a
// malformed flag.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "bench/reporting.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/vrl_system.hpp"
#include "dram/auditor.hpp"
#include "dram/policy_registry.hpp"
#include "dram/timing_table.hpp"
#include "power/power_model.hpp"
#include "telemetry/recorder.hpp"
#include "trace/address.hpp"
#include "trace/synthetic.hpp"

namespace {

/// Per (preset, policy) accumulation over the workload grid.
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
  std::vector<vrl::dram::TimingViolation> violations;  ///< Workload order.

  double AvgLatency() const {
    return requests == 0 ? 0.0 : latency_sum / static_cast<double>(requests);
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

}  // namespace

int main(int argc, char** argv) {
  using namespace vrl;

  std::string audit_out;
  std::size_t windows = 4;
  std::size_t max_workloads = 0;
  std::size_t subarrays = 4;
  bool gate_latency = false;
  const auto report_options =
      bench::ParseFlags(argc, argv, bench::kOutput | bench::kPreset,
                        {{"--audit-out", &audit_out},
                         {"--windows", &windows},
                         {"--workloads", &max_workloads},
                         {"--subarrays", &subarrays},
                         {"--gate-latency", &gate_latency}});
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
  if (max_workloads != 0 && max_workloads < workloads.size()) {
    workloads.resize(max_workloads);
  }

  bench::Report report("refresh_tournament");
  report.AddMeta("windows", windows);
  report.AddMeta("workloads", workloads.size());
  report.AddMeta("subarrays", subarrays);
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
    config.subarrays = subarrays;
    const core::VrlSystem system(config);
    const dram::TimingAuditor auditor(config.TimingTableFor());
    const power::PowerModel power_model({}, config.tech.clock_period_s);
    const Cycles horizon = system.HorizonForWindows(windows);
    const trace::AddressMapper mapper(system.Geometry());

    // Each trace is generated and mapped once and replayed under every
    // policy.  A policy's sums still run over the workloads in suite order,
    // and its violations are kept apart and merged in policy order, so the
    // report and the audit log read as if each policy ran its grid alone.
    dram::AuditReport merged;
    std::map<std::string, PolicyAgg> aggs;
    for (const auto& workload : workloads) {
      // Same trace derivation as the Fig. 4 grid (core/experiments.cpp)
      // and the conformance bench, so results line up across reports.
      Rng rng(config.seed ^ 0xABCD'1234ULL);
      const auto requests = trace::MapToRequests(
          trace::GenerateTrace(workload, system.Geometry(), horizon, rng),
          mapper);

      for (const std::string& name : policy_names) {
        PolicyAgg& agg = aggs[name];
        telemetry::Recorder recorder;
        dram::CommandLog log;
        const auto stats =
            system.Simulate(name, requests, horizon, &recorder, &log);

        dram::AuditReport audited = auditor.Audit(log);
        merged.commands_checked += audited.commands_checked;
        for (auto& v : audited.violations) {
          agg.violations.push_back(std::move(v));
        }

        const std::uint64_t served =
            stats.TotalReads() + stats.TotalWrites();
        agg.latency_sum +=
            stats.AverageRequestLatency() * static_cast<double>(served);
        agg.requests += served;
        agg.full += stats.TotalFullRefreshes();
        agg.partial += stats.TotalPartialRefreshes();
        const auto energy = power_model.Compute(stats);
        agg.refresh_nj += energy.refresh_nj;
        agg.total_nj += energy.Total();

        const auto snap = recorder.Snapshot();
        agg.proposals += CounterOf(snap, "dram.refresh.proposals");
        agg.granted += CounterOf(snap, "dram.refresh.granted");
        agg.deferred += CounterOf(snap, "dram.refresh.deferred");
        agg.urgent_grants += CounterOf(snap, "dram.refresh.urgent_grants");
        agg.skipped += CounterOf(snap, "policy.skipped_refreshes");
        agg.mprsf_resets += CounterOf(snap, "policy.mprsf_resets");
        ++agg.sims;
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
  report.AddMeta("latency_gate",
                 gate_failed ? (gate_latency ? "FAIL" : "fail (not gated)")
                             : "pass");
  if (!audit_out.empty()) {
    std::ofstream out(audit_out, std::ios::binary);
    if (!out) {
      throw ConfigError("refresh_tournament: cannot open '" + audit_out +
                        "'");
    }
    out << audit_text;
  }
  report.Emit(report_options, std::cout);
  if (total_violations != 0) {
    return 1;
  }
  return gate_latency && gate_failed ? 2 : 0;
}
