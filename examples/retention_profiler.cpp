// Retention profiler: Monte-Carlo profile of a DRAM bank, RAIDR binning,
// and the per-row MPRSF table VRL-DRAM programs into the controller.
//
//   ./retention_profiler [rows] [cells_per_row] [seed] [--json PATH] [--csv PATH]
//
// Prints the binning summary and an MPRSF histogram.  --csv writes the
// per-row profile (row, retention, bin period, MPRSF) to PATH ("-" =
// stdout, in place of the text report) instead of the report's tables;
// without it no file is written.  A path that cannot be written is one
// `error:` line and exit 2.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <ostream>
#include <string>
#include <utility>

#include "bench/reporting.hpp"
#include "common/rng.hpp"
#include "model/refresh_model.hpp"
#include "retention/distribution.hpp"
#include "retention/mprsf.hpp"
#include "retention/profile.hpp"

int main(int argc, char** argv) {
  using namespace vrl;
  using namespace vrl::retention;

  std::size_t rows = 8192;
  std::size_t cells = 32;
  std::uint64_t seed = 42;
  auto report_options = bench::ParseFlags(
      argc, argv, bench::kOutput,
      {{"rows", &rows, bench::kPositive},
       {"cells", &cells, bench::kPositive},
       {"seed", &seed}});
  // --csv names the per-row profile here, opened before any work so a bad
  // path fails first.
  const std::string csv_path = std::exchange(report_options.csv_path, "");
  std::ofstream csv_file;
  if (!csv_path.empty() && csv_path != "-") {
    csv_file.open(csv_path);
    if (!csv_file) {
      std::fprintf(stderr, "error: cannot open '%s' for writing\n",
                   csv_path.c_str());
      return 2;
    }
  }

  Rng rng(seed);
  const RetentionDistribution dist;
  const auto profile = RetentionProfile::Generate(dist, rows, cells, rng);
  const auto bins = BinRows(profile, StandardBinPeriods());

  bench::Report report("retention_profiler");
  report.AddMeta("rows", rows);
  report.AddMeta("cells_per_row", cells);
  report.AddMeta("seed", static_cast<std::size_t>(seed));
  report.AddMeta("weakest_row_ms", profile.MinRetention() * 1e3, 1);

  TextTable& bin_table =
      report.AddTable("bins", {"refresh period (ms)", "rows"});
  for (std::size_t b = 0; b < bins.periods_s.size(); ++b) {
    bin_table.AddRow({Fmt(bins.periods_s[b] * 1e3, 0),
                      std::to_string(bins.rows_per_bin[b])});
  }

  // MPRSF for each row, using the default technology's analytical model.
  TechnologyParams tech;
  tech.rows = rows;
  tech.columns = cells;
  const model::RefreshModel refresh_model(tech);
  const MprsfCalculator calc(refresh_model,
                             refresh_model.PartialRefreshTimings().tau_post_s);
  const auto mprsf = calc.ComputeRowMprsf(profile, bins, 3);

  std::map<std::size_t, std::size_t> histogram;
  for (const auto m : mprsf) {
    ++histogram[m];
  }
  TextTable& mprsf_table =
      report.AddTable("mprsf_histogram", {"MPRSF", "rows", "share"});
  for (const auto& [value, count] : histogram) {
    mprsf_table.AddRow(
        {std::to_string(value), std::to_string(count),
         FmtPercent(static_cast<double>(count) / static_cast<double>(rows),
                    1)});
  }
  // "--csv -" takes stdout's text report's place, as in every binary.
  std::ostream discard(nullptr);
  const bool csv_on_stdout = csv_path == "-";
  report.Emit(report_options,
              csv_on_stdout && report_options.json_path != "-" ? discard
                                                               : std::cout);
  if (csv_path.empty()) {
    return 0;
  }
  std::ostream& csv = csv_on_stdout ? std::cout : csv_file;
  csv << "row,retention_ms,bin_period_ms,mprsf\n";
  for (std::size_t r = 0; r < rows; ++r) {
    csv << r << ',' << profile.RowRetention(r) * 1e3 << ','
        << bins.RowPeriod(r) * 1e3 << ',' << mprsf[r] << '\n';
  }
  if (!csv.flush()) {
    std::fprintf(stderr, "error: cannot write the per-row profile to '%s'\n",
                 csv_path.c_str());
    return 2;
  }
  if (!csv_on_stdout) {
    std::fprintf(stderr, "per-row profile written to %s\n", csv_path.c_str());
  }
  return 0;
}
