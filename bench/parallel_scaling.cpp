// Extension bench: wall-clock scaling of the deterministic parallel
// executor on the DefaultGrid() design-space sweep (the acceptance workload
// of docs/PARALLEL.md), serial vs. multi-threaded.
//
// Prints one row per thread count — wall-clock seconds, speedup over the
// 1-thread run — and cross-checks that every run's results are bit-identical
// to the serial ones before reporting anything.  EXPERIMENTS.md records the
// numbers for the reference runner.

#include <chrono>
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench/reporting.hpp"
#include "common/parallel.hpp"
#include "core/sweep.hpp"

using namespace vrl;

int main(int argc, char** argv) {
  const auto report_options = bench::ParseFlags(argc, argv, bench::kOutput);
  const std::size_t hw = DefaultThreadCount();
  bench::Report report("parallel_scaling");
  report.AddMeta("sweep", "RunSweep(DefaultGrid())");
  report.AddMeta("workload", "facesim");
  report.AddMeta("windows", std::size_t{8});
  report.AddMeta("hardware_threads", hw);

  core::VrlConfig base;
  base.banks = 2;
  const auto grid = core::DefaultGrid();
  const auto workload = trace::SuiteWorkload("facesim");

  std::vector<std::size_t> counts = {1, 2};
  if (hw > 2) {
    counts.push_back(hw);
  }

  std::vector<core::SweepResult> serial;
  double wall_serial = 0.0;
  TextTable& table = report.AddTable(
      "scaling", {"threads", "wall (s)", "speedup", "bit-identical"});
  for (const std::size_t threads : counts) {
    const ScopedThreadCount scoped(threads);
    const auto t0 = std::chrono::steady_clock::now();
    const auto results = core::RunSweep(base, grid, workload, 8);
    const auto t1 = std::chrono::steady_clock::now();
    const double wall = std::chrono::duration<double>(t1 - t0).count();

    bool identical = true;
    if (threads == 1) {
      serial = results;
      wall_serial = wall;
    } else {
      identical = serial == results;
    }
    table.AddRow({std::to_string(threads), Fmt(wall, 2),
                  Fmt(wall_serial / wall, 2), identical ? "yes" : "NO"});
    if (!identical) {
      std::fprintf(stderr,
                   "FATAL: %zu-thread sweep diverged from the serial one\n",
                   threads);
      return 1;
    }
  }
  report.AddMeta("determinism_contract",
                 "identical results at every thread count "
                 "(docs/PARALLEL.md); speedup tracks physical cores for this "
                 "coarse-grained sweep");
  report.Emit(report_options, std::cout);
  return 0;
}
