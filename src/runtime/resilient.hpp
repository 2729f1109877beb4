#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/experiments.hpp"
#include "core/sweep.hpp"
#include "retention/vrt.hpp"
#include "runtime/runner.hpp"
#include "trace/synthetic.hpp"

/// \file resilient.hpp
/// Crash-tolerant drivers: the core experiment entry points (core::RunSweep,
/// core::RunEvaluationSuite, core::RunResilienceComparison) re-expressed as
/// journaled, supervisable leg campaigns over RunJournaledLegs
/// (docs/RESILIENCE.md).
///
/// With default RuntimeOptions (no journal, no workers) these produce
/// results identical to the core drivers.  With a journal path they resume
/// after a crash; with workers they survive leg crashes and hangs.  Every
/// mode routes leg results through runtime/codec.hpp, so all of them emit
/// byte-identical reports.
///
/// Telemetry: each leg records into its own recorder; the leg's
/// metrics snapshot travels inside the journaled payload and is absorbed
/// into the experiment sink (options.telemetry / system recorder) in leg
/// order after the campaign completes — so a resumed run's merged metrics
/// equal an uninterrupted run's.  Leg *lineage rings* do not cross the
/// codec (metrics only); the runtime's own lineage records land in
/// RuntimeOptions::runtime_telemetry instead.

namespace vrl::runtime {

/// FNV-1a 64 digest identifying a sweep campaign: base config, workload,
/// grid and window count.  Part of the journal header — a journal written
/// for a different campaign is refused.
std::uint64_t SweepConfigDigest(const core::VrlConfig& base,
                                const std::vector<core::SweepPoint>& points,
                                const trace::SyntheticWorkloadParams& workload,
                                std::size_t windows);

/// Digest of an evaluation-suite campaign (system config + options).
std::uint64_t SuiteConfigDigest(const core::VrlSystem& system,
                                const core::ExperimentOptions& options);

/// Digest of a resilience-comparison campaign.
std::uint64_t ResilienceConfigDigest(const core::VrlSystem& system,
                                     core::PolicyKind kind,
                                     const retention::VrtParams& vrt,
                                     const core::ExperimentOptions& options);

/// Journaled core::RunSweep: one leg per sweep point.
std::vector<core::SweepResult> RunSweep(
    const core::VrlConfig& base, const std::vector<core::SweepPoint>& points,
    const trace::SyntheticWorkloadParams& workload, std::size_t windows,
    const RuntimeOptions& runtime, RunnerStats* stats = nullptr);

/// Journaled core::RunEvaluationSuite: one leg per suite workload.
std::vector<core::WorkloadResult> RunEvaluationSuite(
    const core::VrlSystem& system, const core::ExperimentOptions& options,
    const RuntimeOptions& runtime, RunnerStats* stats = nullptr);

/// Journaled core::RunResilienceComparison: one leg per comparison arm
/// (JEDEC / plain / adaptive).  Campaign legs pulse WorkerHeartbeat through
/// fault::CampaignSetup::heartbeat when executing in a worker child, so a
/// healthy long campaign is never mistaken for a hang.
core::ResilienceResult RunResilienceComparison(
    const core::VrlSystem& system, core::PolicyKind kind,
    const retention::VrtParams& vrt, const core::ExperimentOptions& options,
    const RuntimeOptions& runtime, RunnerStats* stats = nullptr);

}  // namespace vrl::runtime
