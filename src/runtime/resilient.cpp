#include "runtime/resilient.hpp"

#include <sstream>

#include "common/error.hpp"
#include "core/config_io.hpp"
#include "runtime/codec.hpp"
#include "runtime/journal.hpp"
#include "runtime/supervisor.hpp"

namespace vrl::runtime {
namespace {

/// Telemetry sink resolution matching the core drivers: an explicit
/// options sink wins over the system recorder; null = telemetry off.
telemetry::Recorder* ResolveSink(const core::VrlSystem& system,
                                 const core::ExperimentOptions& options) {
  return options.telemetry != nullptr ? options.telemetry
                                      : system.telemetry();
}

void DigestWorkload(std::ostream& os,
                    const trace::SyntheticWorkloadParams& workload) {
  os << "workload " << EscapeToken(workload.name) << ' '
     << EncodeDouble(workload.mean_gap_cycles) << ' '
     << EncodeDouble(workload.footprint_fraction) << ' '
     << EncodeDouble(workload.sequential_prob) << ' '
     << EncodeDouble(workload.write_fraction) << ' ' << workload.streams
     << ' ' << workload.phase_cycles << ' ' << workload.seed_salt << '\n';
}

void DigestCommonOptions(std::ostream& os,
                         const core::ExperimentOptions& options) {
  // threads and the telemetry sink are deliberately excluded: they do not
  // affect results (determinism contract), so a resumed run may use a
  // different thread count or sink and still match.
  os << "windows " << options.windows << '\n';
  os << "energy " << EncodeDouble(options.energy.e_activate_pj) << ' '
     << EncodeDouble(options.energy.e_read_pj) << ' '
     << EncodeDouble(options.energy.e_write_pj) << ' '
     << EncodeDouble(options.energy.e_refresh_fixed_pj) << ' '
     << EncodeDouble(options.energy.p_refresh_active_mw) << ' '
     << EncodeDouble(options.energy.p_background_mw) << '\n';
}

/// Every leg records into a fresh recorder whose *metrics* travel inside
/// the payload.  The recorder options do not influence metric values (only
/// event retention, which the codec excludes), so payloads are
/// byte-identical whether or not a sink is configured.
telemetry::RecorderOptions LegRecorderOptions(telemetry::Recorder* sink) {
  return sink != nullptr ? sink->options() : telemetry::RecorderOptions{};
}

}  // namespace

std::uint64_t SweepConfigDigest(
    const core::VrlConfig& base, const std::vector<core::SweepPoint>& points,
    const trace::SyntheticWorkloadParams& workload, std::size_t windows) {
  std::ostringstream os;
  os << "sweep\n";
  core::WriteVrlConfig(base, os);
  DigestWorkload(os, workload);
  os << "windows " << windows << '\n';
  for (const core::SweepPoint& point : points) {
    os << "point " << point.nbits << ' '
       << EncodeDouble(point.partial_target) << ' '
       << EncodeDouble(point.retention_guardband) << ' ' << point.subarrays
       << '\n';
  }
  return Fnv1a64(os.str());
}

std::uint64_t SuiteConfigDigest(const core::VrlSystem& system,
                                const core::ExperimentOptions& options) {
  std::ostringstream os;
  os << "evaluation_suite\n";
  core::WriteVrlConfig(system.config(), os);
  DigestCommonOptions(os, options);
  os << "suite_size " << trace::EvaluationSuite().size() << '\n';
  return Fnv1a64(os.str());
}

std::uint64_t ResilienceConfigDigest(const core::VrlSystem& system,
                                     core::PolicyKind kind,
                                     const retention::VrtParams& vrt,
                                     const core::ExperimentOptions& options) {
  std::ostringstream os;
  os << "resilience_comparison\n";
  core::WriteVrlConfig(system.config(), os);
  DigestCommonOptions(os, options);
  os << "policy " << core::PolicyName(kind) << '\n';
  os << "fault_seed " << options.fault_seed << '\n';
  os << "vrt " << EncodeDouble(vrt.row_fraction) << ' '
     << EncodeDouble(vrt.low_ratio) << ' '
     << EncodeDouble(vrt.low_state_prob) << ' '
     << EncodeDouble(vrt.mean_dwell_s) << '\n';
  return Fnv1a64(os.str());
}

std::vector<core::SweepResult> RunSweep(
    const core::VrlConfig& base, const std::vector<core::SweepPoint>& points,
    const trace::SyntheticWorkloadParams& workload, std::size_t windows,
    const RuntimeOptions& runtime, RunnerStats* stats) {
  if (points.empty() || windows == 0) {
    throw ConfigError("RunSweep: need points and a non-zero window count");
  }
  const auto payloads = RunJournaledLegs(
      "sweep", SweepConfigDigest(base, points, workload, windows),
      points.size(),
      [&](std::size_t i) {
        std::ostringstream os;
        EncodeSweepResult(
            os, core::RunSweepPoint(base, points[i], workload, windows));
        if (InWorkerChild()) {
          // Sweep points have no campaign telemetry of their own; a
          // per-point progress counter still gives the fleet federation a
          // live per-worker throughput signal (docs/OBSERVABILITY.md).
          telemetry::Recorder progress;
          progress.counter("sweep.points_completed").Add(1);
          WorkerPublishTelemetry(progress, /*force=*/true);
        }
        return os.str();
      },
      runtime, stats);

  std::vector<core::SweepResult> results;
  results.reserve(payloads.size());
  for (const std::string& payload : payloads) {
    LineCursor cursor(payload);
    results.push_back(DecodeSweepResult(cursor));
  }
  return results;
}

std::vector<core::WorkloadResult> RunEvaluationSuite(
    const core::VrlSystem& system, const core::ExperimentOptions& options,
    const RuntimeOptions& runtime, RunnerStats* stats) {
  const auto suite = trace::EvaluationSuite();
  telemetry::Recorder* sink = ResolveSink(system, options);
  const auto payloads = RunJournaledLegs(
      "evaluation_suite", SuiteConfigDigest(system, options), suite.size(),
      [&](std::size_t i) {
        telemetry::Recorder leg_recorder(LegRecorderOptions(sink));
        core::ExperimentOptions leg_options = options;
        leg_options.telemetry = &leg_recorder;
        const core::WorkloadResult result =
            core::RunWorkload(system, suite[i], leg_options);
        if (InWorkerChild()) {
          WorkerPublishTelemetry(leg_recorder, /*force=*/true);
        }
        std::ostringstream os;
        EncodeWorkloadResult(os, result);
        EncodeSnapshot(os, leg_recorder.Snapshot());
        return os.str();
      },
      runtime, stats);

  std::vector<core::WorkloadResult> results;
  results.reserve(payloads.size());
  for (const std::string& payload : payloads) {
    LineCursor cursor(payload);
    results.push_back(DecodeWorkloadResult(cursor));
    const telemetry::MetricsSnapshot snapshot = DecodeSnapshot(cursor);
    if (sink != nullptr) {
      sink->metrics().Absorb(snapshot);  // Leg order = merge order.
    }
  }
  return results;
}

core::ResilienceResult RunResilienceComparison(
    const core::VrlSystem& system, core::PolicyKind kind,
    const retention::VrtParams& vrt, const core::ExperimentOptions& options,
    const RuntimeOptions& runtime, RunnerStats* stats) {
  const std::vector<core::ResilienceLeg> legs = core::ResilienceLegs(kind);
  telemetry::Recorder* sink = ResolveSink(system, options);
  const auto payloads = RunJournaledLegs(
      "resilience_comparison",
      ResilienceConfigDigest(system, kind, vrt, options), legs.size(),
      [&](std::size_t i) {
        telemetry::Recorder leg_recorder(LegRecorderOptions(sink));
        // WorkerHeartbeat / WorkerPublishTelemetry are no-ops outside a
        // worker child, so the hook is always safe to install; in a child
        // it pulses liveness and streams the leg's counters as rate-limited
        // 'S' frames (docs/OBSERVABILITY.md).
        const fault::CampaignReport leg_report = core::RunResilienceLeg(
            system, legs[i], vrt, options, &leg_recorder, [&leg_recorder] {
              WorkerHeartbeat();
              if (InWorkerChild()) {
                WorkerPublishTelemetry(leg_recorder);
              }
            });
        if (InWorkerChild()) {
          WorkerPublishTelemetry(leg_recorder, /*force=*/true);
        }
        std::ostringstream os;
        EncodeCampaignReport(os, leg_report);
        EncodeSnapshot(os, leg_recorder.Snapshot());
        return os.str();
      },
      runtime, stats);

  core::ResilienceResult result;
  fault::CampaignReport* const outs[] = {&result.jedec, &result.plain,
                                         &result.adaptive};
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    LineCursor cursor(payloads[i]);
    *outs[i] = DecodeCampaignReport(cursor);
    const telemetry::MetricsSnapshot snapshot = DecodeSnapshot(cursor);
    if (sink != nullptr) {
      sink->metrics().Absorb(snapshot);
    }
  }
  return result;
}

}  // namespace vrl::runtime
