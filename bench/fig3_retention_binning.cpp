// Reproduces Fig. 3: the DRAM retention-time distribution (3a) and the
// row binning table (3b).
//
// Paper reference (Fig. 3b) for an 8192-row bank:
//   64 ms -> 68 rows, 128 ms -> 101, 192 ms -> 145, 256 ms -> 7878.

#include <algorithm>
#include <cstdio>
#include <iostream>

#include "bench/reporting.hpp"
#include "common/rng.hpp"
#include "retention/distribution.hpp"
#include "retention/profile.hpp"

int main(int argc, char** argv) {
  using namespace vrl;
  using namespace vrl::retention;

  const auto report_options = bench::ParseFlags(argc, argv, bench::kOutput);
  Rng rng(42);
  const RetentionDistribution dist;

  bench::Report report("fig3_retention_binning");
  report.AddMeta("cells", std::size_t{8192 * 32});

  // ---- Fig. 3a: cell retention histogram over the paper's window --------
  constexpr std::size_t kBuckets = 21;
  constexpr double kLo = 0.065;
  constexpr double kHi = 4.681;
  const auto hist = BuildRetentionHistogram(dist, rng, 8192 * 32, kLo, kHi,
                                            kBuckets, /*clamp_overflow=*/true);
  const auto peak = *std::max_element(hist.begin(), hist.end());
  TextTable& fig3a =
      report.AddTable("fig3a", {"retention (ms)", "cells", "histogram"});
  for (std::size_t b = 0; b < kBuckets; ++b) {
    const double center =
        (kLo + (static_cast<double>(b) + 0.5) * (kHi - kLo) / kBuckets) * 1e3;
    const auto bar_len = static_cast<std::size_t>(
        40.0 * static_cast<double>(hist[b]) / static_cast<double>(peak));
    fig3a.AddRow({Fmt(center, 0), std::to_string(hist[b]),
                  std::string(bar_len, '#')});
  }

  // ---- Fig. 3b: row binning ----------------------------------------------
  Rng profile_rng(42);
  const auto profile =
      RetentionProfile::Generate(dist, 8192, 32, profile_rng);
  const auto bins = BinRows(profile, StandardBinPeriods());
  TextTable& fig3b = report.AddTable(
      "fig3b", {"refresh period (ms)", "rows (ours)", "rows (paper)"});
  const char* paper[] = {"68", "101", "145", "7878"};
  for (std::size_t b = 0; b < bins.periods_s.size(); ++b) {
    fig3b.AddRow({Fmt(bins.periods_s[b] * 1e3, 0),
                  std::to_string(bins.rows_per_bin[b]), paper[b]});
  }
  report.Emit(report_options, std::cout);
  return 0;
}
