// Extension ablation: retention guardbands vs. runtime hazards.
//
// The paper (like RAIDR) trusts the retention profile exactly.  AVATAR
// (DSN 2015) and REAPER (ISCA 2017) showed that temperature excursions and
// variable retention time (VRT) make un-guarded profile-based refresh
// unsafe.  This bench quantifies the trade-off in VRL-DRAM terms:
//
//  * rows:    planning guardband applied to the profile (VrlConfig),
//  * columns: integrity (data-loss count) when the runtime retention is
//             degraded by temperature (retention halves per 10 C above the
//             45 C profiling point) and worst-case VRT, plus the refresh
//             overhead cost of the guardband.
//
// Replayed with core::IntegrityChecker against the true physics.

#include <cstdio>
#include <iostream>

#include "bench/reporting.hpp"
#include "core/integrity.hpp"
#include "core/vrl_system.hpp"
#include "retention/temperature.hpp"
#include "retention/vrt.hpp"

int main(int argc, char** argv) {
  using namespace vrl;

  const auto report_options = bench::ParseFlags(argc, argv, bench::kOutput);
  bench::Report report("ablation_guardband");

  const retention::TemperatureModel temperature;
  const retention::VrtParams vrt;
  constexpr std::size_t kWindows = 16;

  TextTable& table = report.AddTable(
      "sweep", {"guardband", "VRL overhead vs ungated RAIDR", "clamped rows",
                "fail @45C", "fail @50C", "fail @55C", "fail @65C+VRT",
                "max safe temp"});

  // Reference overhead: RAIDR planned without any guardband.
  double raidr_reference = 0.0;
  {
    core::VrlConfig config;
    config.banks = 1;
    const core::VrlSystem reference(config);
    raidr_reference =
        reference.Simulate("RAIDR", {}, reference.HorizonForWindows(kWindows))
            .RefreshOverheadPerBank();
  }

  // The last configuration adds spare-row remapping on top of the 2x
  // guardband, retiring the clamped-row hazard entirely.
  struct Setting {
    double guard;
    std::size_t spares;
  };
  for (const auto& [guard, spares] :
       {Setting{1.0, 0}, Setting{1.3, 0}, Setting{1.6, 0}, Setting{2.0, 0},
        Setting{2.0, 128}}) {
    core::VrlConfig config;
    config.banks = 1;
    config.retention_guardband = guard;
    config.spare_rows = spares;
    const core::VrlSystem system(config);

    const double vrl_overhead =
        system.Simulate("VRL", {}, system.HorizonForWindows(kWindows))
            .RefreshOverheadPerBank();

    std::vector<std::string> row{
        Fmt(guard, 1) + (spares > 0 ? "+spares" : ""),
        Fmt(vrl_overhead / raidr_reference, 3),
        std::to_string(system.guardband_clamped_rows())};
    for (const double celsius : {45.0, 50.0, 55.0}) {
      const core::IntegrityChecker checker(
          system, temperature.RetentionScale(celsius));
      row.push_back(std::to_string(checker.Check("VRL", kWindows).failures));
    }

    // Worst-case VRT on top of the 65 C excursion.
    Rng rng(config.seed ^ 0x5afeULL);
    const auto vrt_rows =
        retention::SampleVrtRows(vrt, system.profile().rows(), rng);
    const auto runtime = retention::WorstCaseRuntimeProfile(
        system.profile(), vrt_rows, vrt);
    const core::IntegrityChecker vrt_checker(
        system, runtime, temperature.RetentionScale(65.0));
    row.push_back(
        std::to_string(vrt_checker.Check("VRL", kWindows).failures));

    row.push_back(Fmt(temperature.MaxSafeCelsius(guard), 1) + " C");
    table.AddRow(std::move(row));
  }
  report.AddMeta("paper_note",
                 "no guardband: safe only at profiling conditions; each 10 C "
                 "costs a 2x retention derating, so a 2x guardband buys ~10 C "
                 "of headroom at a modest overhead premium");
  report.AddMeta("residual_note",
                 "residual failures at covered temperatures come from the "
                 "clamped rows (guarded retention below the 64 ms base "
                 "period) — those need faster-than-base refresh or remapping, "
                 "which is outside VRL-DRAM's scope");
  report.Emit(report_options, std::cout);
  return 0;
}
