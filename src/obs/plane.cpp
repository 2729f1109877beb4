#include "obs/plane.hpp"

namespace vrl::obs {

MonitorPlane::MonitorPlane(const PlaneOptions& options)
    : epoch_(std::chrono::steady_clock::now()) {
  if (!options.watchdog_path.empty()) {
    watchdog_ = std::make_unique<SloWatchdog>(
        LoadWatchdogRulesFile(options.watchdog_path));
  }
  if (options.serve) {
    server_ = std::make_unique<MonitorServer>(options.port, &progress_);
  }
  previous_observer_ = SetParallelObserver(&progress_);
}

MonitorPlane::~MonitorPlane() {
  // Restore before members destruct: fan-outs running after this plane dies
  // must not call into the dead reporter.
  SetParallelObserver(previous_observer_);
}

double MonitorPlane::NowSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void MonitorPlane::Sample(telemetry::Recorder& recorder) {
  Sample(recorder, NowSeconds());
}

void MonitorPlane::Sample(telemetry::Recorder& recorder, double now_s) {
  HealthState state = HealthState::kOk;
  std::string reason;
  if (watchdog_) {
    state = watchdog_->Sample(recorder.Snapshot(), now_s, &recorder.lineage());
    reason = watchdog_->last_breach();
  }
  if (server_) {
    server_->SetHealth(state,
                       state == HealthState::kOk ? std::string_view{}
                                                 : std::string_view(reason));
    server_->Publish(recorder);
  }
}

}  // namespace vrl::obs
