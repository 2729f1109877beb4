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
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench/reporting.hpp"
#include "core/vrl_system.hpp"
#include "trace/synthetic.hpp"

int main(int argc, char** argv) {
  using namespace vrl;

  const auto report_options = bench::ParseFlags(argc, argv, bench::kOutput);
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

  // Every run is on 4 banks.  Neither the scheduler nor the page policy
  // changes the geometry or the horizon, so each workload is drawn once
  // (Rng(11)) and every run of both tables reads that draw.
  const auto system_for = [](dram::SchedulerKind scheduler,
                             dram::RowBufferPolicy page) {
    core::VrlConfig config;
    config.banks = 4;
    config.scheduler = scheduler;
    config.page_policy = page;
    return core::VrlSystem(config);
  };
  const core::VrlSystem fcfs =
      system_for(dram::SchedulerKind::kFcfs, dram::RowBufferPolicy::kOpenPage);
  const core::VrlSystem fr_fcfs = system_for(dram::SchedulerKind::kFrFcfs,
                                             dram::RowBufferPolicy::kOpenPage);
  const core::VrlSystem closed_page = system_for(
      dram::SchedulerKind::kFcfs, dram::RowBufferPolicy::kClosedPage);
  const Cycles horizon = fcfs.HorizonForWindows(kWindows);
  const trace::AddressMapper mapper(fcfs.Geometry());

  // Page-policy comparison on the random-access workload: closed-page
  // turns conflicts into row-empty activations (precharge happens in the
  // shadow of the previous access), which wins when hits are rare.  Its
  // open-page row is canneal's FCFS VRL-Access run of the first table.
  // The rows are buffered and the table added last: Report::AddTable
  // returns a reference that a later AddTable call may invalidate.
  const auto hit_rate = [](const dram::SimulationStats& stats) {
    const double hits = static_cast<double>(stats.TotalRowHits());
    const double accesses = hits + static_cast<double>(stats.TotalRowMisses());
    return FmtPercent(accesses > 0 ? hits / accesses : 0.0, 1);
  };
  std::vector<std::vector<std::string>> page_rows;
  const auto add_page_row = [&](const char* page,
                                const dram::SimulationStats& stats) {
    page_rows.push_back(
        {page, Fmt(stats.AverageRequestLatency(), 1), hit_rate(stats)});
  };
  for (const auto& workload : workloads) {
    TextTable& table = report.AddTable(
        workload.name, {"scheduler", "policy", "avg latency (cyc)",
                        "row hit rate", "refresh cyc/bank"});
    Rng rng(11);
    const auto streams =
        trace::GenerateStreams(workload, mapper, horizon, rng);
    const bool page_study = workload.name == "canneal";

    for (const core::VrlSystem* system : {&fcfs, &fr_fcfs}) {
      for (const char* policy : {"JEDEC", "RAIDR", "VRL", "VRL-Access"}) {
        const auto stats = system->SimulateStreams(policy, streams, horizon);
        table.AddRow({dram::SchedulerName(system->config().scheduler), policy,
                      Fmt(stats.AverageRequestLatency(), 1), hit_rate(stats),
                      Fmt(stats.RefreshOverheadPerBank(), 0)});
        if (page_study && system == &fcfs &&
            std::string_view(policy) == "VRL-Access") {
          add_page_row("open", stats);
        }
      }
    }
    if (page_study) {
      add_page_row("closed", closed_page.SimulateStreams("VRL-Access",
                                                         streams, horizon));
    }
  }
  TextTable& page_table = report.AddTable(
      "page_policy_canneal", {"page policy", "avg latency (cyc)",
                              "row hit rate"});
  for (auto& row : page_rows) {
    page_table.AddRow(std::move(row));
  }
  report.Emit(report_options, std::cout);
  return 0;
}
