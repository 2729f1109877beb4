#pragma once

#include <string>
#include <vector>

#include "core/vrl_system.hpp"
#include "trace/synthetic.hpp"

/// \file sweep.hpp
/// Design-space exploration over the VRL-DRAM configuration knobs.
///
/// A deployment has to pick the counter width, the partial-refresh restore
/// target, the retention guardband and (if the array supports it) the
/// subarray organization together — the knobs interact: a deeper partial
/// target raises MPRSF but narrows the latency gap, a guardband inflates
/// every bin, wider counters only help if MPRSF can use them.  A sweep
/// (RunSweep) evaluates a list of candidate points under one workload,
/// one RunSweepPoint each, and reports the metrics needed to choose:
/// normalized refresh overhead (VRL and VRL-Access), area cost, and the
/// planning health (clamped rows, mean MPRSF).

namespace vrl::core {

/// One candidate configuration (fields default to the paper's choices).
struct SweepPoint {
  std::size_t nbits = 2;
  double partial_target = 0.95;
  double retention_guardband = 1.0;
  std::size_t subarrays = 1;

  std::string Label() const;

  bool operator==(const SweepPoint&) const = default;
};

struct SweepResult {
  SweepPoint point;
  double vrl_normalized = 0.0;         ///< vs RAIDR at the same guardband.
  double vrl_access_normalized = 0.0;
  double logic_area_um2 = 0.0;
  double area_fraction = 0.0;          ///< of the bank.
  double mean_mprsf = 0.0;
  std::size_t clamped_rows = 0;

  bool operator==(const SweepResult&) const = default;
};

/// Evaluates a single sweep point under `workload` for `windows` base
/// refresh windows, against a base configuration (geometry, seed, banks):
/// one point of RunSweep.  The point derives its RNG streams from its own
/// configuration and shares nothing mutable with other points, so points
/// run in parallel bit-identically.
SweepResult RunSweepPoint(const VrlConfig& base, const SweepPoint& point,
                          const trace::SyntheticWorkloadParams& workload,
                          std::size_t windows);

/// Evaluates every point under `workload` for `windows` base refresh
/// windows, against a base configuration.  Points run in parallel
/// (VRL_THREADS / ScopedThreadCount sets how many) and the results, in
/// point order, are bit-identical at any thread count.
/// \throws vrl::ConfigError on an empty grid or a zero window count.
std::vector<SweepResult> RunSweep(
    const VrlConfig& base, const std::vector<SweepPoint>& points,
    const trace::SyntheticWorkloadParams& workload, std::size_t windows);

/// A compact default grid around the paper's design point.
std::vector<SweepPoint> DefaultGrid();

}  // namespace vrl::core
