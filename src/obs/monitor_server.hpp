#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/progress.hpp"
#include "obs/prometheus.hpp"
#include "obs/watchdog.hpp"
#include "telemetry/profiler.hpp"
#include "telemetry/recorder.hpp"

/// \file monitor_server.hpp
/// MonitorServer — the dependency-free embedded HTTP server of the
/// observability plane (docs/OBSERVABILITY.md).  Plain POSIX sockets, one
/// poll()-driven background thread, GET-only:
///
///   GET /metrics       Prometheus text exposition of the last published
///                      snapshot plus exact drop/meta counters.
///   GET /healthz       watchdog health ("ok"/"degraded" 200, "failing" 503).
///   GET /readyz        200 after the first publish, 503 before.
///   GET /runs          JSON progress of ParallelFor fan-outs, plus the
///                      journaled-leg total/committed/resumed counts when a
///                      journaled campaign publishes them.
///   GET /trace?last=N  JSONL tail of the refresh-lineage ring (the last
///                      100 records without ?last).
///   GET /profile       attribution tree (docs/PROFILING.md) of the last
///                      published recorder with a profiler attached, as
///                      vrl.profile.v1 JSON; ?format=collapsed renders
///                      collapsed flamegraph stacks instead (?format=json
///                      is the default).  404 until a profiling recorder
///                      publishes.
///
/// The query is split on '&' into key=value pairs: /trace takes only one
/// `last` (a whole count), /profile only one `format`; any other query —
/// an unknown or repeated key, a bad value — is a 400.
///
/// The server also observes itself: per-endpoint request counters and the
/// accumulated scrape duration render in /metrics as the `obs_scrape_*`
/// family.
///
/// Thread safety follows a publish/scrape split: the *driver* thread owns
/// the Recorder (which stays single-threaded per docs/TELEMETRY.md) and
/// pushes immutable copies through Publish()/SetHealth(); the server
/// thread renders only those copies under the publish lock.  The server
/// never touches a live Recorder.
///
/// Security: binds 127.0.0.1 unless the VRL_MONITOR_BIND environment
/// variable says otherwise — the endpoints are unauthenticated
/// introspection, not a public API.  The port is the server's one setting;
/// bench::MakeMonitorPlane announces the bound address.

namespace vrl::obs {

/// Journaled-leg progress of the campaign driving this server — what /runs
/// reports alongside fan-outs while a journaled run executes.
struct LegProgress {
  std::string campaign;       ///< Journal campaign name.
  std::size_t total = 0;
  std::size_t committed = 0;  ///< Journaled (including resumed).
  std::size_t resumed = 0;    ///< Restored from the journal at startup.
};

class MonitorServer {
 public:
  /// Binds `port` (0 asks the kernel for an ephemeral port; read it back
  /// from port()), listens and starts the server thread.
  /// \param progress optional /runs feed (caller-owned, must outlive the
  ///                 server).
  /// \throws vrl::ConfigError when the socket cannot be bound.
  explicit MonitorServer(int port = 0,
                         const ProgressReporter* progress = nullptr);
  ~MonitorServer();

  MonitorServer(const MonitorServer&) = delete;
  MonitorServer& operator=(const MonitorServer&) = delete;

  /// The bound port (the kernel's pick when the requested port was 0).
  int port() const { return port_; }
  /// The bound address, e.g. "127.0.0.1".
  const std::string& bind_address() const { return bind_address_; }

  /// Publishes an immutable copy of the recorder's current state: metrics
  /// snapshot, span/lineage totals, and the pre-rendered lineage
  /// JSONL tail.  Driver-thread only (the recorder is single-threaded).
  void Publish(const telemetry::Recorder& recorder);

  /// Publishes the watchdog verdict shown by /healthz.
  void SetHealth(HealthState state, std::string_view reason);

  /// Publishes journaled-leg progress for /runs.  Driver-thread only.
  void PublishLegProgress(const LegProgress& progress);

  /// Builds the full HTTP response for GET `target` (path + optional query)
  /// — the socket loop's brain, exposed so tests can drive deterministic
  /// scrape/publish interleaves without a client socket.
  std::string HandleGet(std::string_view target);

  /// /metrics scrapes served so far (strictly increases per scrape — the
  /// cross-scrape monotonicity anchor for scripts/check_metrics.py).
  std::uint64_t metrics_scrapes() const;

 private:
  void ServeLoop();
  std::string RenderMetrics();
  std::string RenderProfile(bool collapsed, int* status) const;
  std::string RenderHealth(int* status) const;
  std::string RenderRuns() const;
  std::string RenderTraceTail(std::size_t last) const;
  static std::string BuildResponse(int status, std::string_view content_type,
                                   std::string_view body);

  const ProgressReporter* progress_;
  std::string bind_address_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread thread_;
  bool stop_requested_ = false;  ///< Written under mutex_ by ~MonitorServer.

  mutable std::mutex mutex_;
  bool ready_ = false;
  telemetry::MetricsSnapshot published_;
  std::uint64_t spans_recorded_ = 0;
  std::uint64_t spans_dropped_ = 0;
  std::uint64_t lineage_recorded_ = 0;
  std::uint64_t lineage_dropped_ = 0;
  std::size_t lineage_retained_ = 0;
  std::vector<std::string> lineage_tail_;  ///< Pre-rendered JSONL lines.
  HealthState health_ = HealthState::kOk;
  std::string health_reason_;
  std::uint64_t publishes_ = 0;
  std::chrono::steady_clock::time_point last_publish_;
  std::uint64_t scrapes_metrics_ = 0;
  /// Self-observability (obs_scrape_*): requests served per endpoint and
  /// the total wall time spent building responses.
  std::map<std::string, std::uint64_t> endpoint_hits_;
  double scrape_seconds_ = 0.0;

  // Last published attribution tree (set iff the publishing recorder had
  // a profiler) — the /profile feed.
  telemetry::ProfileSnapshot profile_;
  bool profile_published_ = false;
  LegProgress legs_;
  bool legs_published_ = false;
};

}  // namespace vrl::obs
