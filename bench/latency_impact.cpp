// Extension bench: end-to-end request-latency impact of variable refresh
// latency.
//
// The paper reports refresh overhead in cycles the bank is blocked; this
// bench shows what that means for the requests themselves: average access
// latency per workload under each refresh policy, with the FCFS and FR-FCFS
// request schedulers.  Shorter / fewer full refreshes shrink the tail a
// request waits behind a refresh, and FR-FCFS raises the row-hit rate on
// top.

#include <cstdio>
#include <iostream>

#include "bench/reporting.hpp"
#include "core/vrl_system.hpp"
#include "trace/synthetic.hpp"

int main(int argc, char** argv) {
  using namespace vrl;

  const auto report_options = bench::ParseReportArgsOrExit(argc, argv);
  bench::Report report("latency_impact");

  constexpr std::size_t kWindows = 8;

  // A saturating workload on top of the suite entries: at this intensity
  // per-bank queues actually form, so the scheduler's reordering matters.
  trace::SyntheticWorkloadParams stress;
  stress.name = "stress";
  stress.mean_gap_cycles = 10.0;
  stress.footprint_fraction = 0.3;
  stress.sequential_prob = 0.9;
  stress.write_fraction = 0.3;
  stress.streams = 8;  // interleaved threads, so reordering finds row hits
  stress.seed_salt = 99;

  std::vector<trace::SyntheticWorkloadParams> workloads{
      trace::SuiteWorkload("streamcluster"), trace::SuiteWorkload("canneal"),
      stress};

  for (const auto& workload : workloads) {
    TextTable& table = report.AddTable(
        workload.name, {"scheduler", "policy", "avg latency (cyc)",
                        "row hit rate", "refresh cyc/bank"});

    for (const auto scheduler :
         {dram::SchedulerKind::kFcfs, dram::SchedulerKind::kFrFcfs}) {
      core::VrlConfig config;
      config.banks = 4;
      config.scheduler = scheduler;
      const core::VrlSystem system(config);
      const Cycles horizon = system.HorizonForWindows(kWindows);
      Rng rng(11);
      const auto records =
          trace::GenerateTrace(workload, system.Geometry(), horizon, rng);
      const auto requests = trace::MapToRequests(
          records, trace::AddressMapper(system.Geometry()));

      for (const char* policy : {"JEDEC", "RAIDR", "VRL", "VRL-Access"}) {
        const auto stats = system.Simulate(policy, requests, horizon);
        const double hits = static_cast<double>(stats.TotalRowHits());
        const double accesses =
            hits + static_cast<double>(stats.TotalRowMisses());
        table.AddRow({dram::SchedulerName(scheduler), policy,
                      Fmt(stats.AverageRequestLatency(), 1),
                      FmtPercent(accesses > 0 ? hits / accesses : 0.0, 1),
                      Fmt(stats.RefreshOverheadPerBank(), 0)});
      }
    }
  }

  // Page-policy comparison on the random-access workload: closed-page
  // turns conflicts into row-empty activations (precharge happens in the
  // shadow of the previous access), which wins when hits are rare.
  TextTable& page_table = report.AddTable(
      "page_policy_canneal", {"page policy", "avg latency (cyc)",
                              "row hit rate"});
  for (const auto page :
       {dram::RowBufferPolicy::kOpenPage, dram::RowBufferPolicy::kClosedPage}) {
    core::VrlConfig config;
    config.banks = 4;
    config.page_policy = page;
    const core::VrlSystem system(config);
    const Cycles horizon = system.HorizonForWindows(kWindows);
    Rng rng(11);
    const auto records = trace::GenerateTrace(trace::SuiteWorkload("canneal"),
                                              system.Geometry(), horizon, rng);
    const auto requests =
        trace::MapToRequests(records, trace::AddressMapper(system.Geometry()));
    const auto stats = system.Simulate("VRL-Access", requests, horizon);
    const double hits = static_cast<double>(stats.TotalRowHits());
    const double accesses = hits + static_cast<double>(stats.TotalRowMisses());
    page_table.AddRow(
        {page == dram::RowBufferPolicy::kOpenPage ? "open" : "closed",
         Fmt(stats.AverageRequestLatency(), 1),
         FmtPercent(accesses > 0 ? hits / accesses : 0.0, 1)});
  }
  report.Emit(report_options, std::cout);
  return 0;
}
