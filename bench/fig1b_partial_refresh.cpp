// Reproduces Fig. 1b: "Refreshing a DRAM cell with full and partial refresh
// operations".
//
// Simulates a cell whose retention time is slightly above the 64 ms refresh
// period under (1) an all-full-refresh schedule and (2) a partial-refresh
// schedule.  Paper reference: with full refreshes the cell is restored to
// 100% every period; with partials, the first partial (95%) is safe but the
// cell cannot sustain two back-to-back partials — the charge drops below
// the sensing threshold during the second period.

#include <cstdio>
#include <iostream>

#include "bench/reporting.hpp"
#include "model/refresh_model.hpp"
#include "retention/mprsf.hpp"

int main(int argc, char** argv) {
  using namespace vrl;

  const auto report_options = bench::ParseFlags(argc, argv, bench::kOutput);
  const TechnologyParams tech;
  const model::RefreshModel refresh_model(tech);
  const retention::MprsfCalculator calc(
      refresh_model, refresh_model.PartialRefreshTimings().tau_post_s);

  const double retention_s = 0.067;  // slightly above the 64 ms period
  const double period_s = 0.064;

  bench::Report report("fig1b_partial_refresh");
  report.AddMeta("cell_retention_ms", retention_s * 1e3, 0);
  report.AddMeta("refresh_period_ms", period_s * 1e3, 0);
  report.AddMeta("readable_threshold_pct",
                 refresh_model.MinReadableFraction() * 100.0, 1);

  const auto add_schedule = [&](const char* name,
                                std::size_t partials_between_fulls) {
    TextTable& table =
        report.AddTable(name, {"time (ms)", "event", "% charge", "data"});
    const auto traj = calc.SimulateSchedule(retention_s, period_s,
                                            partials_between_fulls, 3);
    for (const auto& p : traj) {
      if (!p.is_refresh) {
        continue;
      }
      table.AddRow({Fmt(p.time_s * 1e3, 0),
                    p.was_full ? "full refresh" : "partial refresh",
                    Fmt(p.fraction * 100.0, 1),
                    p.sense_ok ? "retained" : "LOST"});
    }
  };

  add_schedule("full_schedule", 0);
  add_schedule("partial_schedule", 3);

  report.AddMeta("cell_mprsf", calc.ComputeMprsf(retention_s, period_s, 8));
  report.AddMeta("paper_note",
                 "needs a full refresh in the period after a partial");

  // Sampled decay trajectory for re-plotting the figure.
  TextTable& samples =
      report.AddTable("decay_samples", {"time (ms)", "% charge"});
  for (const auto& p : calc.SimulateSchedule(retention_s, period_s, 3, 3)) {
    samples.AddRow({Fmt(p.time_s * 1e3, 1), Fmt(p.fraction * 100.0, 1)});
  }
  report.Emit(report_options, std::cout);
  return 0;
}
