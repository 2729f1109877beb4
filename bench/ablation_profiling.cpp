// Extension ablation: how trustworthy is the retention profile VRL-DRAM
// builds on?
//
// The paper assumes profiling data is available (citing RAIDR/REAPER).
// This bench runs the simulated profiler (retention/profiler.hpp) against a
// chip with VRT rows and reports the optimistic-miss rate — rows whose
// measured retention exceeds what they can guarantee at runtime — as a
// function of profiling rounds and derating ("aggressive conditions").
// The REAPER insight reproduced here: more rounds help against VRT, but
// only derating closes the gap completely.

#include <cstdio>
#include <iostream>

#include "bench/reporting.hpp"
#include "common/rng.hpp"
#include "retention/distribution.hpp"
#include "retention/profiler.hpp"
#include "retention/vrt.hpp"

int main(int argc, char** argv) {
  using namespace vrl;
  using namespace vrl::retention;

  const auto report_options = bench::ParseFlags(argc, argv, bench::kOutput);
  bench::Report report("ablation_profiling");

  Rng rng(2024);
  const RetentionDistribution dist;
  const auto truth = RetentionProfile::Generate(dist, 8192, 32, rng);

  VrtParams vrt;
  vrt.row_fraction = 0.02;
  vrt.low_ratio = 0.6;
  vrt.low_state_prob = 0.3;
  const auto vrt_rows = SampleVrtRows(vrt, truth.rows(), rng);
  const auto worst = WorstCaseRuntimeProfile(truth, vrt_rows, vrt);

  TextTable& table = report.AddTable(
      "sweep", {"rounds", "derating", "optimistic miss rate", "missed rows"});
  for (const std::size_t rounds : {std::size_t{1}, std::size_t{2},
                                   std::size_t{4}, std::size_t{8}}) {
    for (const double derating : {1.0, 1.0 / 0.6}) {
      ProfilingCampaign campaign = StandardCampaign();
      campaign.rounds = rounds;
      campaign.derating = derating;
      Rng measure_rng(7);
      const auto measured =
          MeasureProfile(truth, vrt_rows, vrt, campaign, measure_rng);
      const double miss = OptimisticMissRate(measured, worst);
      table.AddRow({std::to_string(rounds), Fmt(derating, 2),
                    FmtPercent(miss, 3),
                    std::to_string(static_cast<std::size_t>(
                        miss * static_cast<double>(truth.rows()) + 0.5))});
    }
  }
  report.AddMeta("paper_note",
                 "with no derating, each extra round halves the chance a VRT "
                 "row is only seen in its high state, but can never reach "
                 "zero; derating by the VRT low ratio (1/0.6) makes even a "
                 "single round safe — REAPER's 'profiling at aggressive "
                 "conditions'");
  report.Emit(report_options, std::cout);
  return 0;
}
