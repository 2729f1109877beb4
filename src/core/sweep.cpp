#include "core/sweep.hpp"

#include <cstdio>

#include "area/area_model.hpp"
#include "common/error.hpp"
#include "trace/address.hpp"

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
  Rng rng(config.seed ^ 0x5111EE7ULL);
  const auto records =
      trace::GenerateTrace(workload, system.Geometry(), horizon, rng);
  const auto requests =
      trace::MapToRequests(records, trace::AddressMapper(system.Geometry()));

  const double raidr =
      system.Simulate("RAIDR", requests, horizon).RefreshOverheadPerBank();
  const double vrl =
      system.Simulate("VRL", requests, horizon).RefreshOverheadPerBank();
  const double vrl_access = system.Simulate("VRL-Access", requests, horizon)
                                .RefreshOverheadPerBank();

  SweepResult result;
  result.point = point;
  result.vrl_normalized = vrl / raidr;
  result.vrl_access_normalized = vrl_access / raidr;
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
