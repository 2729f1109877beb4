#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

/// \file runner.hpp
/// The crash-tolerant leg runner (docs/RESILIENCE.md): journaled resume,
/// then deterministic in-process execution of the remaining legs — the one
/// engine every resilient driver funnels through.
///
/// A "leg" is one independent unit of a campaign (a sweep point, one arm of
/// fault_campaign's resilience comparison).  The caller provides a pure
/// `leg_fn(i) -> payload` (encoded via runtime/codec.hpp) and gets back the
/// full payload vector, assembled from:
///
///   * the journal's committed prefix (legs a previous, interrupted run
///     already finished — skipped entirely on resume), then
///   * freshly executed legs, run on threads via vrl::ParallelForCommit
///     (VRL_THREADS sets how many).
///
/// Commits happen on the calling thread in strictly increasing leg order,
/// so the journal keeps its contiguous-prefix invariant no matter how legs
/// are scheduled.  Because resumed and fresh legs route results through the
/// same codec, a resumed campaign produces byte-identical reports to an
/// uninterrupted run.
///
/// Test hook: VRL_CRASH_AFTER_LEG=N raises SIGKILL immediately after the
/// N-th durable journal commit made while the variable is set — the chaos
/// harness's crash injector (only counts commits, so the resumed process
/// needs N more commits to crash again).

namespace vrl::runtime {

/// Runs the `legs`-leg campaign named `campaign` (journal identity is the
/// name plus `config_digest` — resuming with a different configuration is
/// refused).  `journal_path` is the write-ahead journal; empty runs every
/// leg in-process with no journal (and no resume).  Returns all leg
/// payloads in leg order.
/// \throws vrl::ParseError on journal corruption, vrl::ConfigError on a
///         journal/campaign mismatch.
std::vector<std::string> RunJournaledLegs(
    const std::string& campaign, std::uint64_t config_digest,
    std::size_t legs, const std::function<std::string(std::size_t)>& leg_fn,
    const std::string& journal_path);

}  // namespace vrl::runtime
