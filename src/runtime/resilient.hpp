#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/sweep.hpp"
#include "runtime/runner.hpp"
#include "trace/synthetic.hpp"

/// \file resilient.hpp
/// The design-space sweep as a journaled leg campaign over
/// RunJournaledLegs (docs/RESILIENCE.md), one leg per core::RunSweepPoint:
/// the driver behind `bench/design_space` and `bench/parallel_scaling`.
///
/// Without a journal path every point runs in-process; with one the sweep
/// resumes after a crash.  Resumed and fresh legs both route through
/// runtime/codec.hpp, so a resumed run emits byte-identical reports.
/// (`fault_campaign` journals its three legs itself; every other binary
/// calls the core drivers.)

namespace vrl::runtime {

/// FNV-1a 64 digest identifying a sweep campaign: base config, workload,
/// grid and window count.  Part of the journal header — a journal written
/// for a different campaign is refused.
std::uint64_t SweepConfigDigest(const core::VrlConfig& base,
                                const std::vector<core::SweepPoint>& points,
                                const trace::SyntheticWorkloadParams& workload,
                                std::size_t windows);

/// Evaluates every point under `workload` for `windows` base refresh
/// windows, against a base configuration (geometry, seed, banks).  Points
/// run in parallel (VRL_THREADS / ScopedThreadCount sets how many) and the
/// results are bit-identical at any thread count and across resumes.
/// `journal_path` journals each finished point; empty runs without one.
/// \throws vrl::ConfigError on an empty grid or a zero window count.
std::vector<core::SweepResult> RunSweep(
    const core::VrlConfig& base, const std::vector<core::SweepPoint>& points,
    const trace::SyntheticWorkloadParams& workload, std::size_t windows,
    const std::string& journal_path = {});

}  // namespace vrl::runtime
