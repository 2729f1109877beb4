// Extension ablation: subarray-level parallelism (SALP, Kim et al. ISCA
// 2012 — reference [21] of the paper) combined with variable refresh
// latency.
//
// With one subarray per bank, every refresh blocks the whole bank and the
// only way to shrink the stall is to shrink tRFC — which is VRL's lever.
// With several subarrays, refreshes overlap with accesses to other
// subarrays (Chang et al., HPCA 2014), attacking the same overhead from an
// orthogonal direction.  This bench shows the two compose: the
// refresh-induced latency penalty (JEDEC vs VRL-Access) shrinks with
// subarrays, while VRL's busy-cycle saving is unaffected.

#include <cstdio>
#include <iostream>

#include "bench/reporting.hpp"
#include "core/vrl_system.hpp"
#include "trace/synthetic.hpp"

int main(int argc, char** argv) {
  using namespace vrl;

  const auto report_options = bench::ParseReportArgsOrExit(argc, argv);
  bench::Report report("ablation_salp");

  // A hot workload so refresh stalls are visible in the latency.
  trace::SyntheticWorkloadParams hot;
  hot.name = "hot";
  hot.mean_gap_cycles = 12.0;
  hot.footprint_fraction = 0.4;
  hot.sequential_prob = 0.8;
  hot.streams = 4;
  hot.seed_salt = 77;

  TextTable& table = report.AddTable(
      "sweep", {"subarrays", "policy", "avg latency (cyc)",
                "refresh cyc/bank"});
  for (const std::size_t subarrays :
       {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
    for (const char* policy : {"JEDEC", "VRL-Access"}) {
      core::VrlConfig config;
      config.banks = 4;
      config.subarrays = subarrays;
      const core::VrlSystem system(config);
      const Cycles horizon = system.HorizonForWindows(8);
      Rng rng(5);
      const auto records =
          trace::GenerateTrace(hot, system.Geometry(), horizon, rng);
      const auto requests = trace::MapToRequests(
          records, trace::AddressMapper(system.Geometry()));
      const auto stats = system.Simulate(policy, requests, horizon);
      table.AddRow({std::to_string(subarrays), policy,
                    Fmt(stats.AverageRequestLatency(), 1),
                    Fmt(stats.RefreshOverheadPerBank(), 0)});
    }
  }
  report.AddMeta("paper_note",
                 "SALP hides refresh behind accesses to other subarrays; VRL "
                 "shrinks what remains visible.  The two mechanisms compose");
  report.Emit(report_options, std::cout);
  return 0;
}
