#include "core/sweep.hpp"

#include <cstdio>

#include "area/area_model.hpp"
#include "common/error.hpp"
#include "common/parallel.hpp"
#include "core/experiments.hpp"

namespace vrl::core {

std::string SweepPoint::Label() const {
  char buffer[96];
  std::snprintf(buffer, sizeof buffer, "n%zu t%.2f g%.2f s%zu", nbits,
                partial_target, retention_guardband, subarrays);
  return buffer;
}

SweepResult RunSweepPoint(const VrlConfig& base, const SweepPoint& point,
                          const trace::SyntheticWorkloadParams& workload,
                          std::size_t windows) {
  if (windows == 0) {
    throw ConfigError("RunSweepPoint: need a non-zero window count");
  }
  const area::AreaModel area_model;
  VrlConfig config = base;
  config.nbits = point.nbits;
  config.spec.partial_target = point.partial_target;
  config.retention_guardband = point.retention_guardband;
  config.subarrays = point.subarrays;
  const VrlSystem system(config);

  const Cycles horizon = system.HorizonForWindows(windows);
  // One draw of the trace, shared read-only by the three runs; the sweep
  // salts its own trace seed.
  const WorkloadResult runs = RunWorkloadOn(
      system, workload, DrawWorkload(system, workload, horizon, 0x5111EE7ULL),
      horizon, {}, nullptr);

  SweepResult result;
  result.point = point;
  result.vrl_normalized = runs.VrlNormalized();
  result.vrl_access_normalized = runs.VrlAccessNormalized();
  result.logic_area_um2 = area_model.LogicAreaUm2(point.nbits);
  result.area_fraction = area_model.OverheadFraction(
      point.nbits, config.tech.rows, config.tech.columns);
  double mprsf_sum = 0.0;
  for (const auto m : system.row_mprsf()) {
    mprsf_sum += static_cast<double>(m);
  }
  result.mean_mprsf =
      mprsf_sum / static_cast<double>(system.row_mprsf().size());
  result.clamped_rows = system.guardband_clamped_rows();
  return result;
}

std::vector<SweepResult> RunSweep(
    const VrlConfig& base, const std::vector<SweepPoint>& points,
    const trace::SyntheticWorkloadParams& workload, std::size_t windows) {
  if (points.empty() || windows == 0) {
    throw ConfigError("RunSweep: need points and a non-zero window count");
  }
  return ParallelMap("sweep", points.size(), [&](std::size_t i) {
    return RunSweepPoint(base, points[i], workload, windows);
  });
}

std::vector<SweepPoint> DefaultGrid() {
  std::vector<SweepPoint> grid;
  for (const std::size_t nbits : {std::size_t{1}, std::size_t{2}}) {
    for (const double target : {0.92, 0.95, 0.97}) {
      SweepPoint point;
      point.nbits = nbits;
      point.partial_target = target;
      grid.push_back(point);
    }
  }
  // Guardbanded variants of the paper's point.
  for (const double guard : {1.3, 2.0}) {
    SweepPoint point;
    point.retention_guardband = guard;
    grid.push_back(point);
  }
  // SALP variant.
  SweepPoint salp;
  salp.subarrays = 8;
  grid.push_back(salp);
  return grid;
}

}  // namespace vrl::core
