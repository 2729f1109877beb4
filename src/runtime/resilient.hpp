#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/sweep.hpp"
#include "runtime/runner.hpp"
#include "trace/synthetic.hpp"

/// \file resilient.hpp
/// The crash-tolerant design-space sweep: core::RunSweep re-expressed as a
/// journaled leg campaign over RunJournaledLegs (docs/RESILIENCE.md), the
/// driver behind `bench/design_space --resume`.
///
/// With default RuntimeOptions (no journal) it produces results identical
/// to core::RunSweep.  With a journal path it resumes after a crash.
/// Resumed and fresh legs both route through runtime/codec.hpp, so a
/// resumed run emits byte-identical reports.  (`fault_campaign` journals
/// its three legs itself; every other binary calls the core drivers.)

namespace vrl::runtime {

/// FNV-1a 64 digest identifying a sweep campaign: base config, workload,
/// grid and window count.  Part of the journal header — a journal written
/// for a different campaign is refused.
std::uint64_t SweepConfigDigest(const core::VrlConfig& base,
                                const std::vector<core::SweepPoint>& points,
                                const trace::SyntheticWorkloadParams& workload,
                                std::size_t windows);

/// Journaled core::RunSweep: one leg per sweep point.
std::vector<core::SweepResult> RunSweep(
    const core::VrlConfig& base, const std::vector<core::SweepPoint>& points,
    const trace::SyntheticWorkloadParams& workload, std::size_t windows,
    const RuntimeOptions& runtime, RunnerStats* stats = nullptr);

}  // namespace vrl::runtime
