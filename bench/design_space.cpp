// Extension bench: design-space exploration across the VRL-DRAM knobs —
// counter width, partial restore target, retention guardband, subarrays —
// reporting the metrics a deployment would trade off (core/sweep.hpp).
//
// The paper's design point (nbits=2, 95% target, no guardband, plain bank)
// sits at the overhead knee; this table shows what each neighbouring choice
// buys and costs.
//
// The sweep runs through the crash-tolerant runtime (docs/RESILIENCE.md):
// `--resume <journal>` journals each completed point so an interrupted
// sweep picks up where it crashed, with a table byte-identical to an
// uninterrupted run.

#include <cstdio>
#include <iostream>

#include "bench/reporting.hpp"
#include "common/parallel.hpp"
#include "core/sweep.hpp"
#include "runtime/resilient.hpp"

int main(int argc, char** argv) {
  using namespace vrl;

  const auto report_options = bench::ParseFlags(
      argc, argv, bench::kOutput | bench::kRuntime);
  bench::Report report("design_space");
  report.AddMeta("workload", "facesim");
  report.AddMeta("windows", std::size_t{8});
  report.AddMeta("threads", DefaultThreadCount());

  try {
    core::VrlConfig base;
    base.banks = 2;
    const auto grid = core::DefaultGrid();

    const auto results =
        runtime::RunSweep(base, grid, trace::SuiteWorkload("facesim"), 8,
                          report_options.resume_path);

    TextTable& table = report.AddTable(
        "sweep", {"point", "VRL", "VRL-Access", "area um^2", "% bank",
                  "mean MPRSF", "clamped"});
    for (const auto& r : results) {
      table.AddRow({r.point.Label(), Fmt(r.vrl_normalized, 3),
                    Fmt(r.vrl_access_normalized, 3),
                    Fmt(r.logic_area_um2, 0),
                    FmtPercent(r.area_fraction, 2), Fmt(r.mean_mprsf, 2),
                    std::to_string(r.clamped_rows)});
    }
    report.AddMeta("point_key",
                   "n=nbits, t=partial restore target, g=guardband, "
                   "s=subarrays.  Overheads normalized to RAIDR at the same "
                   "guardband");
    report.Emit(report_options, std::cout);
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  }
}
