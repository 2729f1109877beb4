#pragma once

#include <chrono>
#include <memory>
#include <string>

#include "obs/monitor_server.hpp"
#include "obs/progress.hpp"
#include "obs/watchdog.hpp"
#include "telemetry/recorder.hpp"

/// \file plane.hpp
/// MonitorPlane — the one-object faceplate drivers attach: it owns the
/// optional MonitorServer and SloWatchdog, installs a ProgressReporter as
/// the process ParallelFor observer for its lifetime, and bundles the
/// publish-and-evaluate step into Sample() (docs/OBSERVABILITY.md).
/// bench::MakeMonitorPlane builds one from --serve/--watchdog flags so
/// every bench/example binary gets the plane for free.

namespace vrl::obs {

struct PlaneOptions {
  /// Start a MonitorServer (on `port`; 0 = ephemeral).
  bool serve = false;
  int port = 0;
  /// Load watchdog rules from this file (empty = no watchdog).
  std::string watchdog_path;
};

class MonitorPlane {
 public:
  /// \throws vrl::ConfigError on an unbindable port or bad rules file.
  explicit MonitorPlane(const PlaneOptions& options);
  ~MonitorPlane();

  MonitorPlane(const MonitorPlane&) = delete;
  MonitorPlane& operator=(const MonitorPlane&) = delete;

  /// Null when `serve` was off.
  MonitorServer* server() { return server_.get(); }
  /// Null when no rules file was given.
  SloWatchdog* watchdog() { return watchdog_.get(); }
  ProgressReporter& progress() { return progress_; }

  /// Seconds since the plane was built (the clock Sample() stamps).
  double NowSeconds() const;

  /// One observability step, called by the driver between work (e.g. per
  /// refresh window): runs the watchdog on the recorder's current snapshot
  /// (alerts land in the recorder's own lineage ring), pushes the
  /// verdict and a fresh published copy to the server.  Driver-thread only;
  /// the recorder stays single-threaded.
  void Sample(telemetry::Recorder& recorder);
  void Sample(telemetry::Recorder& recorder, double now_s);

 private:
  ProgressReporter progress_;
  std::unique_ptr<SloWatchdog> watchdog_;
  std::unique_ptr<MonitorServer> server_;
  ParallelObserver* previous_observer_ = nullptr;
  std::chrono::steady_clock::time_point epoch_;
};

}  // namespace vrl::obs
