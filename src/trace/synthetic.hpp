#pragma once

#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "trace/address.hpp"

/// \file synthetic.hpp
/// Synthetic memory-trace generators standing in for the paper's
/// Ramulator-generated PARSEC-3.0 traces and the `bgsave` server workload
/// (see DESIGN.md §2 for the substitution argument).
///
/// Each workload is parameterized along the axes that matter to the
/// VRL-Access mechanism: how much of the bank the workload touches
/// (footprint), how often it touches it (intensity), and how its accesses
/// cluster (sequential streaming vs. random row jumps).  A row activation
/// resets the row's partial-refresh counter, so workloads that sweep many
/// rows benefit the most from VRL-Access.

namespace vrl::trace {

struct SyntheticWorkloadParams {
  std::string name = "synthetic";

  /// Mean cycles between consecutive requests (Poisson arrivals).
  double mean_gap_cycles = 200.0;

  /// Fraction of the address space the workload ever touches.
  double footprint_fraction = 0.5;

  /// Probability that the next access continues the current sequential
  /// stream (next line); otherwise it jumps to a random line within the
  /// footprint.
  double sequential_prob = 0.7;

  /// Fraction of requests that are writes.
  double write_fraction = 0.3;

  /// Number of independent sequential streams (models the threads of a
  /// multithreaded workload; their requests interleave at the controller).
  std::size_t streams = 1;

  /// Phase behaviour: every `phase_cycles` the footprint window shifts by
  /// half its size (the working set migrates, as PARSEC's pipeline-stage
  /// programs do).  0 disables phases.  Migration matters to VRL-Access:
  /// a moving hot set keeps resetting fresh rows' counters.
  Cycles phase_cycles = 0;

  /// Salt mixed into the RNG so each workload has its own stream even with
  /// a shared seed.
  std::uint64_t seed_salt = 0;

  void Validate() const;
};

/// Generates a cycle-sorted trace of the workload over `duration` cycles.
std::vector<TraceRecord> GenerateTrace(const SyntheticWorkloadParams& params,
                                       const AddressGeometry& geometry,
                                       Cycles duration, Rng& rng);

/// The same draw as GenerateTrace over the mapper's geometry, each record
/// decoded into its bank's stream as it is drawn, with no record vector:
/// the form dram::MemoryController::RunStreams takes.  Equal to
/// dram::RequestStreams(MapToRequests(GenerateTrace(params,
/// mapper.geometry(), duration, rng), mapper), banks, rows), and it leaves
/// `rng` in the same state.
dram::RequestStreams GenerateStreams(const SyntheticWorkloadParams& params,
                                     const AddressMapper& mapper,
                                     Cycles duration, Rng& rng);

/// The evaluation suite of the paper: 13 PARSEC-3.0 benchmarks plus the
/// `bgsave` server workload, parameterized per DESIGN.md.
std::vector<SyntheticWorkloadParams> EvaluationSuite();

/// Looks up a suite entry by name. \throws vrl::ConfigError if unknown.
SyntheticWorkloadParams SuiteWorkload(const std::string& name);

}  // namespace vrl::trace
