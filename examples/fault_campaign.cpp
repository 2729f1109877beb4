// Fault-injection campaign: run a refresh policy while faults are injected
// at runtime, detect the resulting sensing failures online, and report how
// gracefully the adaptive degradation layer holds up.
//
//   ./fault_campaign [--config FILE] [--policy NAME]
//     (NAME: any dram::PolicyRegistry entry, e.g. raidr|vrl|vrl-skip|darp|sarp)
//                    [--windows N] [--seed S]
//                    [--row-fraction F] [--low-ratio R] [--dwell-s D]
//                    [--temp-excursion C] [--drift RATE] [--corruption F]
//                    [--json PATH] [--csv PATH]
//                    [--trace-out PATH] [--profile] [--profile-out PATH]
//                    [--profile-scrub]
//                    [--resume JOURNAL]
//
// Three legs run under the identical fault realization: the JEDEC
// full-rate baseline, the plain policy (no detection — silent loss), and
// the adaptive wrapper (detection + demotion / fallback).  Exit code 0
// when the adaptive leg ends with zero unrecovered failures.
//
// The legs execute through the crash-tolerant runtime (docs/RESILIENCE.md):
// with --resume the campaign journals each completed leg and a rerun after
// a crash skips the committed ones, producing byte-identical reports.

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/reporting.hpp"
#include "core/config_io.hpp"
#include "core/experiments.hpp"
#include "core/vrl_system.hpp"
#include "fault/injector.hpp"
#include "retention/temperature.hpp"
#include "retention/vrt.hpp"
#include "runtime/codec.hpp"
#include "runtime/journal.hpp"
#include "runtime/runner.hpp"
#include "telemetry/trace_export.hpp"

namespace {

using namespace vrl;

void AddReportRow(TextTable& table, const std::string& name,
                  const fault::CampaignReport& report,
                  const fault::CampaignReport& jedec) {
  const double vs_jedec = static_cast<double>(report.refresh_busy_cycles) /
                          static_cast<double>(jedec.refresh_busy_cycles);
  table.AddRow({name, std::to_string(report.refreshes),
                std::to_string(report.partial_refreshes),
                std::to_string(report.detected_failures),
                std::to_string(report.corrected_failures),
                std::to_string(report.unrecovered_failures),
                Fmt(report.min_margin, 4), Fmt(vs_jedec, 3)});
}

}  // namespace

int main(int argc, char** argv) {
  core::VrlConfig config;
  config.banks = 1;
  std::string policy_name = "vrl";
  std::size_t windows = 16;
  std::uint64_t seed = 0xFA11ULL;
  retention::VrtParams vrt;
  double temp_excursion_celsius = 0.0;
  double drift_rate = 0.0;
  double corruption_fraction = 0.0;

  const auto report_options = bench::ParseFlags(
      argc, argv,
      bench::kOutput | bench::kProfile | bench::kTrace | bench::kRuntime,
      {{"--config",
        [&](const std::string& path) {
          config = core::LoadVrlConfigFile(path);
          config.banks = 1;  // the campaign replays one bank's schedule
        }},
       {"--policy", &policy_name},
       {"--windows", &windows},
       {"--seed", &seed},
       {"--row-fraction", &vrt.row_fraction},
       {"--low-ratio", &vrt.low_ratio},
       {"--dwell-s", &vrt.mean_dwell_s},
       {"--temp-excursion", &temp_excursion_celsius},
       {"--drift", &drift_rate},
       {"--corruption", &corruption_fraction}});

  try {
    const core::VrlSystem system(config);
    // The three legs of the comparison (JEDEC baseline, plain, adaptive),
    // as journalable runtime legs; legs[1].policy is the canonical name.
    const std::vector<core::ResilienceLeg> legs =
        core::ResilienceLegs(policy_name);
    const std::string& policy = legs[1].policy;
    const double window_s =
        CyclesToSeconds(config.timing.t_refw, config.tech.clock_period_s);

    const auto make_schedule = [&] {
      fault::FaultSchedule schedule(seed);
      schedule.Add(std::make_unique<fault::VrtFlipInjector>(vrt));
      if (temp_excursion_celsius > 0.0) {
        // A hot window spanning the middle third of the campaign.
        const double span = window_s * static_cast<double>(windows);
        schedule.Add(std::make_unique<fault::TemperatureExcursionInjector>(
            retention::TemperatureModel{}, span / 3.0, span / 3.0,
            temp_excursion_celsius));
      }
      if (drift_rate != 0.0) {
        schedule.Add(std::make_unique<fault::RetentionDriftInjector>(
            drift_rate, 0.5));
      }
      if (corruption_fraction != 0.0) {
        schedule.Add(std::make_unique<fault::ProfileCorruptionInjector>(
            corruption_fraction, 0.8));
      }
      return schedule;
    };

    bench::Report report("fault_campaign");
    report.AddMeta("policy", policy);
    report.AddMeta("windows", windows);
    report.AddMeta("vrt_row_fraction", vrt.row_fraction, 4);
    report.AddMeta("vrt_low_ratio", vrt.low_ratio, 2);
    report.AddMeta("vrt_dwell_s", vrt.mean_dwell_s, 2);
    {
      auto probe = make_schedule();
      report.AddMeta("injectors", probe.Describe());
    }

    // The adaptive leg feeds a telemetry recorder; its metrics (campaign.*,
    // adaptive.*, policy.*) travel inside the leg payload and land in the
    // report's telemetry table — via the codec for fresh and resumed legs
    // alike, so journaled and resumed runs emit byte-identical reports.
    // --trace-out / --profile add the campaign's span + lineage trace and
    // the wall-time phase table (docs/TRACING.md) for the same leg; both
    // are wall-clock/process-local extras, populated only when the adaptive
    // leg actually executes in this process.
    telemetry::RecorderOptions recorder_options;
    recorder_options.enable_tracing = !report_options.trace_path.empty();
    // Full-fidelity lineage: a traced campaign wants every refresh op,
    // not just the transitions (docs/TRACING.md).
    recorder_options.lineage_ops = recorder_options.enable_tracing;
    recorder_options.profile_phases = report_options.profile;
    telemetry::Recorder recorder(recorder_options);

    const auto leg_fn = [&](std::size_t leg) {
      auto faults = make_schedule();
      core::FaultCampaignOptions options;
      options.windows = windows;
      options.adaptive = legs[leg].adaptive;
      // The adaptive leg uses the process recorder (trace/profile export
      // reads it afterwards); other legs get a local recorder so the
      // payload format stays uniform.
      telemetry::Recorder local;
      telemetry::Recorder* leg_recorder =
          legs[leg].adaptive ? &recorder : &local;
      options.telemetry = leg_recorder;
      const fault::CampaignReport leg_report =
          system.RunFaultCampaign(legs[leg].policy, faults, options);
      std::ostringstream os;
      runtime::EncodeCampaignReport(os, leg_report);
      runtime::EncodeSnapshot(os, leg_recorder->Snapshot());
      return os.str();
    };

    // Campaign identity for the journal: the configuration and every knob
    // that shapes the legs' results.  A journal written under different
    // knobs is refused rather than silently merged.
    std::uint64_t config_digest = 0;
    {
      std::ostringstream os;
      core::WriteVrlConfig(config, os);
      os << "policy " << policy << '\n'
         << "windows " << windows << '\n'
         << "seed " << seed << '\n'
         << "vrt " << runtime::EncodeDouble(vrt.row_fraction) << ' '
         << runtime::EncodeDouble(vrt.low_ratio) << ' '
         << runtime::EncodeDouble(vrt.low_state_prob) << ' '
         << runtime::EncodeDouble(vrt.mean_dwell_s) << '\n'
         << "excursion " << runtime::EncodeDouble(temp_excursion_celsius)
         << '\n'
         << "drift " << runtime::EncodeDouble(drift_rate) << '\n'
         << "corruption " << runtime::EncodeDouble(corruption_fraction)
         << '\n';
      config_digest = runtime::Fnv1a64(os.str());
    }

    const auto payloads = runtime::RunJournaledLegs(
        "fault_campaign", config_digest, legs.size(), leg_fn,
        report_options.resume_path);

    fault::CampaignReport jedec;
    fault::CampaignReport plain;
    fault::CampaignReport adaptive;
    fault::CampaignReport* const outs[] = {&jedec, &plain, &adaptive};
    telemetry::MetricsSnapshot adaptive_metrics;
    for (std::size_t i = 0; i < payloads.size(); ++i) {
      runtime::LineCursor cursor(payloads[i]);
      *outs[i] = runtime::DecodeCampaignReport(cursor);
      const telemetry::MetricsSnapshot snapshot =
          runtime::DecodeSnapshot(cursor);
      if (i == 2) {
        adaptive_metrics = snapshot;
      }
    }

    TextTable& table = report.AddTable(
        "legs", {"policy", "refreshes", "partials", "detected", "corrected",
                 "unrecovered", "min margin", "ovh/JEDEC"});
    AddReportRow(table, "JEDEC", jedec, jedec);
    AddReportRow(table, policy, plain, jedec);
    AddReportRow(table, "Adaptive(" + policy + ")", adaptive, jedec);

    const auto& sm = adaptive.adaptive;
    report.AddMeta("demotions", sm.demotions);
    report.AddMeta("promotions", sm.promotions);
    report.AddMeta("forced_full_refreshes", sm.forced_full_refreshes);
    report.AddMeta("fallback_entries", sm.fallback_entries);
    report.AddMeta("fallback_exits", sm.fallback_exits);
    report.AddMeta("rows_demoted_at_end", sm.rows_demoted_now);
    report.AddMeta("in_fallback", sm.in_fallback ? "yes" : "no");

    if (!adaptive.events.empty()) {
      TextTable& failures = report.AddTable(
          "first_failures", {"t (ms)", "row", "margin", "op", "outcome"});
      const std::size_t shown =
          std::min<std::size_t>(5, adaptive.events.size());
      for (std::size_t i = 0; i < shown; ++i) {
        const auto& event = adaptive.events[i];
        failures.AddRow({Fmt(event.at_s * 1e3, 1), std::to_string(event.row),
                         Fmt(event.margin, 4),
                         event.was_full ? "full" : "partial",
                         event.corrected ? "corrected" : "UNRECOVERED"});
      }
    }
    report.AddTelemetry(adaptive_metrics);
    if (report_options.profile) {
      report.AddProfile(recorder);
      bench::WriteProfileOutput(report_options, recorder);
    }
    if (!report_options.trace_path.empty()) {
      telemetry::WriteTraceFile(report_options.trace_path,
                                *recorder.tracer(), recorder.lineage());
    }
    report.Emit(report_options, std::cout);

    std::printf("\nverdict: plain %s loses %zu rows' worth of data; "
                "adaptive ends with %zu unrecovered failures at %.1f%% of "
                "JEDEC refresh overhead\n",
                policy.c_str(), plain.unrecovered_failures,
                adaptive.unrecovered_failures,
                100.0 * static_cast<double>(adaptive.refresh_busy_cycles) /
                    static_cast<double>(jedec.refresh_busy_cycles));
    return adaptive.unrecovered_failures == 0 ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 2;
  }
}
