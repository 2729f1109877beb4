// Trace tooling: generate synthetic workload traces to files and inspect
// existing traces.
//
//   ./trace_tools generate <workload> <milliseconds> <output.trace>
//   ./trace_tools stats    <input.trace>
//   ./trace_tools list
//
// `list` and `stats` accept the uniform --json/--csv report flags.
// Trace files use the text format: "<cycle> <R|W> <hex address>".

#include <cstdio>
#include <iostream>
#include <string>

#include "bench/reporting.hpp"
#include "common/rng.hpp"
#include "common/technology.hpp"
#include "trace/io.hpp"
#include "trace/stats.hpp"
#include "trace/synthetic.hpp"

namespace {

using namespace vrl;

int Usage(const char* prog) {
  std::fprintf(stderr,
               "usage:\n"
               "  %s generate <workload> <milliseconds> <output.trace>\n"
               "  %s stats <input.trace>\n"
               "  %s list\n",
               prog, prog, prog);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // `generate` fills every slot; `stats` the first two; `list` the first.
  std::string command;
  std::string trace_or_workload;
  double ms = 0.0;
  std::string output;
  const auto report_options =
      bench::ParseFlags(argc, argv, bench::kOutput,
                        {{"command", &command},
                         {"trace_or_workload", &trace_or_workload},
                         {"milliseconds", &ms, bench::kPositive},
                         {"output", &output}});
  const trace::AddressGeometry geometry;  // 8 banks x 8192 x 32
  const TechnologyParams tech;

  try {
    if (command == "list" && trace_or_workload.empty()) {
      bench::Report report("trace_tools_list");
      TextTable& table = report.AddTable(
          "workloads",
          {"workload", "mean gap (cyc)", "footprint", "seq", "writes"});
      for (const auto& w : trace::EvaluationSuite()) {
        table.AddRow({w.name, Fmt(w.mean_gap_cycles, 0),
                      FmtPercent(w.footprint_fraction, 0),
                      FmtPercent(w.sequential_prob, 0),
                      FmtPercent(w.write_fraction, 0)});
      }
      report.Emit(report_options, std::cout);
      return 0;
    }

    if (command == "generate" && !output.empty()) {
      const auto workload = trace::SuiteWorkload(trace_or_workload);
      const auto duration =
          SecondsToCyclesCeil(ms * 1e-3, tech.clock_period_s);
      Rng rng(7);
      const auto records =
          trace::GenerateTrace(workload, geometry, duration, rng);
      trace::WriteTextFile(output, records);
      std::printf("wrote %zu records (%.1f ms of %s) to %s\n", records.size(),
                  ms, workload.name.c_str(), output.c_str());
      return 0;
    }

    if (command == "stats" && !trace_or_workload.empty() && ms == 0.0) {
      const auto records = trace::ReadTextFile(trace_or_workload);
      const auto stats = trace::ComputeStats(records, geometry);
      bench::Report report("trace_tools_stats");
      report.AddMeta("trace", trace_or_workload);
      report.AddMeta("requests", stats.requests);
      report.AddMeta("write_fraction", FmtPercent(stats.WriteFraction(), 1));
      report.AddMeta("span_cycles",
                     static_cast<std::size_t>(stats.span_cycles));
      report.AddMeta(
          "span_ms",
          CyclesToSeconds(stats.span_cycles, tech.clock_period_s) * 1e3, 2);
      report.AddMeta("requests_per_kilocycle",
                     stats.requests_per_kilocycle, 2);
      report.AddMeta("unique_rows", stats.unique_rows);
      report.AddMeta("row_coverage", FmtPercent(stats.RowCoverage(), 1));
      report.Emit(report_options, std::cout);
      return 0;
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  return Usage(argv[0]);
}
