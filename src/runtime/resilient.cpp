#include "runtime/resilient.hpp"

#include <sstream>

#include "common/error.hpp"
#include "core/config_io.hpp"
#include "runtime/codec.hpp"
#include "runtime/journal.hpp"

namespace vrl::runtime {
namespace {

void DigestWorkload(std::ostream& os,
                    const trace::SyntheticWorkloadParams& workload) {
  os << "workload " << EscapeToken(workload.name) << ' '
     << EncodeDouble(workload.mean_gap_cycles) << ' '
     << EncodeDouble(workload.footprint_fraction) << ' '
     << EncodeDouble(workload.sequential_prob) << ' '
     << EncodeDouble(workload.write_fraction) << ' ' << workload.streams
     << ' ' << workload.phase_cycles << ' ' << workload.seed_salt << '\n';
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

std::vector<core::SweepResult> RunSweep(
    const core::VrlConfig& base, const std::vector<core::SweepPoint>& points,
    const trace::SyntheticWorkloadParams& workload, std::size_t windows,
    const std::string& journal_path) {
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
        return os.str();
      },
      journal_path);

  std::vector<core::SweepResult> results;
  results.reserve(payloads.size());
  for (const std::string& payload : payloads) {
    LineCursor cursor(payload);
    results.push_back(DecodeSweepResult(cursor));
  }
  return results;
}

}  // namespace vrl::runtime
