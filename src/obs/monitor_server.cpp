#include "obs/monitor_server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <map>
#include <optional>
#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "common/parse.hpp"
#include "telemetry/export.hpp"
#include "telemetry/profile_export.hpp"
#include "telemetry/trace_export.hpp"

namespace vrl::obs {
namespace {

using telemetry::FormatDouble;
using telemetry::JsonEscape;

std::string_view StatusText(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 503:
      return "Service Unavailable";
    default:
      return "Error";
  }
}

/// The value of the one `key` a query may carry, or `absent` when the
/// query is empty.  The query splits on '&' into key=value pairs;
/// std::nullopt (a 400) when a pair has no '=', names another key, or
/// repeats `key`.
std::optional<std::string_view> OnlyQueryValue(std::string_view query,
                                               std::string_view key,
                                               std::string_view absent) {
  if (query.empty()) {
    return absent;
  }
  std::optional<std::string_view> value;
  for (;;) {
    const std::size_t amp = query.find('&');
    const std::string_view pair = query.substr(0, amp);
    const std::size_t eq = pair.find('=');
    if (eq == std::string_view::npos || pair.substr(0, eq) != key || value) {
      return std::nullopt;
    }
    value = pair.substr(eq + 1);
    if (amp == std::string_view::npos) {
      return value;
    }
    query.remove_prefix(amp + 1);
  }
}

}  // namespace

MonitorServer::MonitorServer(int port, const ProgressReporter* progress)
    : progress_(progress) {
  const char* env = std::getenv("VRL_MONITOR_BIND");
  bind_address_ = env != nullptr && *env != '\0' ? env : "127.0.0.1";

  // A scraper that disconnects mid-response must never kill the campaign:
  // writes to its closed socket would raise SIGPIPE (default: terminate).
  // Sends below also pass MSG_NOSIGNAL, but ignoring the signal process-wide
  // covers every other fd the run writes.
  ::signal(SIGPIPE, SIG_IGN);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw ConfigError("MonitorServer: socket() failed");
  }
  int reuse = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, bind_address_.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    throw ConfigError("MonitorServer: invalid bind address '" +
                      bind_address_ + "'");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(listen_fd_);
    throw ConfigError("MonitorServer: cannot bind " + bind_address_ + ":" +
                      std::to_string(port));
  }
  if (::listen(listen_fd_, 16) != 0) {
    ::close(listen_fd_);
    throw ConfigError("MonitorServer: listen() failed");
  }
  socklen_t addr_len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len);
  port_ = static_cast<int>(ntohs(addr.sin_port));

  thread_ = std::thread([this] { ServeLoop(); });
}

MonitorServer::~MonitorServer() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_requested_ = true;
  }
  if (thread_.joinable()) {
    thread_.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
  }
}

void MonitorServer::Publish(const telemetry::Recorder& recorder) {
  // Copy everything outside the lock: snapshotting a large registry while
  // a scrape holds the lock would stall the driver on the server.
  telemetry::MetricsSnapshot snapshot = recorder.Snapshot();
  std::uint64_t spans_recorded = 0;
  std::uint64_t spans_dropped = 0;
  telemetry::ProfileSnapshot profile;
  bool has_profile = false;
  if (const telemetry::Profiler* profiler = recorder.profiler()) {
    profile = profiler->Snapshot();
    has_profile = true;
  }
  if (const telemetry::Tracer* tracer = recorder.tracer()) {
    spans_recorded = tracer->recorded_spans();
    spans_dropped = tracer->dropped_spans();
  }
  const telemetry::Lineage& lineage = recorder.lineage();
  std::vector<std::string> tail;
  tail.reserve(lineage.size());
  for (const telemetry::LineageRecord& record : lineage.Retained()) {
    std::ostringstream line;
    telemetry::WriteLineageLine(line, lineage, record);
    tail.push_back(line.str());
  }
  const auto now = std::chrono::steady_clock::now();

  const std::lock_guard<std::mutex> lock(mutex_);
  published_ = std::move(snapshot);
  spans_recorded_ = spans_recorded;
  spans_dropped_ = spans_dropped;
  lineage_recorded_ = lineage.recorded();
  lineage_dropped_ = lineage.dropped();
  lineage_retained_ = lineage.size();
  lineage_tail_ = std::move(tail);
  if (has_profile) {
    profile_ = std::move(profile);
    profile_published_ = true;
  }
  ready_ = true;
  ++publishes_;
  last_publish_ = now;
}

void MonitorServer::SetHealth(HealthState state, std::string_view reason) {
  const std::lock_guard<std::mutex> lock(mutex_);
  health_ = state;
  health_reason_ = std::string(reason);
}

void MonitorServer::PublishLegProgress(const LegProgress& progress) {
  const std::lock_guard<std::mutex> lock(mutex_);
  legs_ = progress;
  legs_published_ = true;
}

std::uint64_t MonitorServer::metrics_scrapes() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return scrapes_metrics_;
}

std::string MonitorServer::BuildResponse(int status,
                                         std::string_view content_type,
                                         std::string_view body) {
  std::ostringstream os;
  os << "HTTP/1.1 " << status << ' ' << StatusText(status)
     << "\r\nContent-Type: " << content_type
     << "\r\nContent-Length: " << body.size()
     << "\r\nConnection: close\r\n\r\n"
     << body;
  return os.str();
}

std::string MonitorServer::RenderMetrics() {
  const std::lock_guard<std::mutex> lock(mutex_);
  ++scrapes_metrics_;
  std::ostringstream os;
  RenderPrometheus(os, published_);

  // Server meta series: exact drop accounting for every bounded channel
  // (recorded = retained + dropped at the moment of the last publish) plus
  // scrape/publish/health state.  The scrape counter increases on every
  // /metrics hit, so two consecutive scrapes always give
  // scripts/check_metrics.py a strictly-increasing counter to check.
  const std::string_view p = kMetricPrefix;
  const auto counter = [&](std::string_view name, std::uint64_t value) {
    os << "# TYPE " << p << name << " counter\n"
       << p << name << ' ' << value << '\n';
  };
  const auto gauge = [&](std::string_view name, double value) {
    os << "# TYPE " << p << name << " gauge\n"
       << p << name << ' ' << PrometheusDouble(value) << '\n';
  };
  counter("monitor_spans_recorded_total", spans_recorded_);
  counter("monitor_spans_dropped_total", spans_dropped_);
  counter("monitor_lineage_recorded_total", lineage_recorded_);
  counter("monitor_lineage_dropped_total", lineage_dropped_);
  gauge("monitor_lineage_retained", static_cast<double>(lineage_retained_));
  counter("monitor_publishes_total", publishes_);
  counter("monitor_metrics_scrapes_total", scrapes_metrics_);
  gauge("monitor_health", static_cast<double>(health_));
  gauge("monitor_ready", ready_ ? 1.0 : 0.0);
  gauge("monitor_publish_age_s",
        publishes_ == 0 ? 0.0
                        : std::chrono::duration<double>(
                              std::chrono::steady_clock::now() -
                              last_publish_)
                              .count());
  if (progress_ != nullptr) {
    counter("monitor_fanouts_total", progress_->fanouts_begun());
    counter("monitor_fanouts_finished_total", progress_->fanouts_finished());
  }
  if (profile_published_) {
    gauge("prof_frames", static_cast<double>(profile_.frames));
    gauge("prof_drops", static_cast<double>(profile_.drops));
  }
  // Self-observability: requests served per endpoint plus the wall time
  // spent building responses (HandleGet counts the request before
  // dispatch, so even the very first /metrics scrape shows itself).
  if (!endpoint_hits_.empty()) {
    os << "# TYPE " << p << "obs_scrape_requests_total counter\n";
    for (const auto& [endpoint, hits] : endpoint_hits_) {
      os << p << "obs_scrape_requests_total{endpoint=\"" << endpoint
         << "\"} " << hits << '\n';
    }
    os << "# TYPE " << p << "obs_scrape_seconds_total counter\n"
       << p << "obs_scrape_seconds_total " << PrometheusDouble(scrape_seconds_)
       << '\n';
  }
  return os.str();
}

std::string MonitorServer::RenderRuns() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::string runs = progress_ != nullptr ? progress_->RenderRunsJson()
                                          : "{\"runs\":[]}\n";
  if (legs_published_) {
    std::ostringstream legs;
    legs << "\"legs\":{\"campaign\":\"" << JsonEscape(legs_.campaign)
         << "\",\"total\":" << legs_.total
         << ",\"committed\":" << legs_.committed
         << ",\"resumed\":" << legs_.resumed << "},";
    runs.insert(1, legs.str());  // After the document's opening '{'.
  }
  return runs;
}

std::string MonitorServer::RenderHealth(int* status) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  *status = health_ == HealthState::kFailing ? 503 : 200;
  std::string body(HealthStateName(health_));
  if (!health_reason_.empty()) {
    body += ' ';
    body += health_reason_;
  }
  body += '\n';
  return body;
}

std::string MonitorServer::RenderTraceTail(std::size_t last) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (last > lineage_tail_.size()) {
    last = lineage_tail_.size();
  }
  std::string body;
  for (std::size_t i = lineage_tail_.size() - last; i < lineage_tail_.size();
       ++i) {
    body += lineage_tail_[i];
  }
  std::ostringstream summary;
  summary << R"({"type":"lineage_summary","recorded":)" << lineage_recorded_
          << R"(,"retained":)" << lineage_tail_.size() << R"(,"dropped":)"
          << lineage_dropped_ << "}\n";
  body += summary.str();
  return body;
}

std::string MonitorServer::HandleGet(std::string_view target) {
  std::string_view path = target;
  std::string_view query;
  const std::size_t question = target.find('?');
  if (question != std::string_view::npos) {
    path = target.substr(0, question);
    query = target.substr(question + 1);
  }
  // Self-observability: count the request up front (so a /metrics scrape
  // sees itself) and time the whole dispatch below.
  const std::string_view endpoint =
      path.size() > 1 && (path == "/metrics" || path == "/healthz" ||
                          path == "/readyz" || path == "/runs" ||
                          path == "/trace" || path == "/profile")
          ? path.substr(1)
          : std::string_view("other");
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++endpoint_hits_[std::string(endpoint)];
  }
  const auto t0 = std::chrono::steady_clock::now();
  std::string response;
  if (path == "/metrics") {
    response = BuildResponse(200, "text/plain; version=0.0.4; charset=utf-8",
                             RenderMetrics());
  } else if (path == "/healthz") {
    int status = 200;
    const std::string body = RenderHealth(&status);
    response = BuildResponse(status, "text/plain; charset=utf-8", body);
  } else if (path == "/readyz") {
    const std::lock_guard<std::mutex> lock(mutex_);
    response = ready_
                   ? BuildResponse(200, "text/plain; charset=utf-8",
                                   "ready\n")
                   : BuildResponse(503, "text/plain; charset=utf-8",
                                   "not ready\n");
  } else if (path == "/runs") {
    response = BuildResponse(200, "application/json", RenderRuns());
  } else if (path == "/trace") {
    const std::optional<std::string_view> text =
        OnlyQueryValue(query, "last", "100");
    const std::optional<std::uint64_t> last =
        text ? ParseWholeUnsigned(*text) : std::nullopt;
    response = last ? BuildResponse(200, "application/x-ndjson",
                                    RenderTraceTail(
                                        static_cast<std::size_t>(*last)))
                    : BuildResponse(400, "text/plain; charset=utf-8",
                                    "bad request\n");
  } else if (path == "/profile") {
    const std::optional<std::string_view> format =
        OnlyQueryValue(query, "format", "json");
    if (format != "json" && format != "collapsed") {
      response = BuildResponse(400, "text/plain; charset=utf-8",
                               "bad request\n");
    } else {
      const bool collapsed = format == "collapsed";
      int status = 200;
      const std::string body = RenderProfile(collapsed, &status);
      response = BuildResponse(
          status,
          collapsed || status != 200 ? "text/plain; charset=utf-8"
                                     : "application/json",
          body);
    }
  } else {
    response =
        BuildResponse(404, "text/plain; charset=utf-8", "not found\n");
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    scrape_seconds_ += elapsed;
  }
  return response;
}

std::string MonitorServer::RenderProfile(bool collapsed, int* status) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!profile_published_) {
    *status = 404;
    return "no profiler attached\n";
  }
  std::ostringstream os;
  if (collapsed) {
    telemetry::WriteCollapsedStacks(os, profile_);
  } else {
    telemetry::WriteProfileJson(os, profile_);
  }
  return os.str();
}

void MonitorServer::ServeLoop() {
  std::map<int, std::string> clients;  ///< fd -> partial request bytes.
  std::vector<pollfd> fds;
  for (;;) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (stop_requested_) {
        break;
      }
    }
    fds.clear();
    fds.push_back({listen_fd_, POLLIN, 0});
    for (const auto& [fd, buffer] : clients) {
      fds.push_back({fd, POLLIN, 0});
    }
    // Short timeout so shutdown is prompt even with no traffic.  A signal
    // landing on this thread (worker SIGCHLD, a debugger attach) interrupts
    // poll with EINTR — retry, don't treat it as traffic.
    const int events = ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                              100);
    if (events < 0 && errno == EINTR) {
      continue;
    }
    if (events <= 0) {
      continue;
    }
    if ((fds[0].revents & POLLIN) != 0) {
      // EINTR/ECONNABORTED here just means "no client this round"; the
      // listening socket stays in the poll set, so the next loop retries.
      const int client = ::accept(listen_fd_, nullptr, nullptr);
      if (client >= 0) {
        clients.emplace(client, std::string());
      }
    }
    for (std::size_t i = 1; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        continue;
      }
      const int fd = fds[i].fd;
      char chunk[4096];
      ssize_t got;
      do {
        got = ::recv(fd, chunk, sizeof(chunk), 0);
      } while (got < 0 && errno == EINTR);
      if (got <= 0) {
        ::close(fd);
        clients.erase(fd);
        continue;
      }
      std::string& buffer = clients[fd];
      buffer.append(chunk, static_cast<std::size_t>(got));
      if (buffer.find("\r\n\r\n") == std::string::npos) {
        if (buffer.size() > 8192) {  // Oversized header: drop the client.
          ::close(fd);
          clients.erase(fd);
        }
        continue;
      }
      // Request line: "GET <target> HTTP/1.x".
      std::string response;
      const std::string line = buffer.substr(0, buffer.find("\r\n"));
      const std::size_t sp1 = line.find(' ');
      const std::size_t sp2 = line.rfind(' ');
      if (sp1 == std::string::npos || sp2 == std::string::npos ||
          sp2 <= sp1) {
        response = BuildResponse(400, "text/plain; charset=utf-8",
                                 "bad request\n");
      } else if (line.substr(0, sp1) != "GET") {
        response = BuildResponse(405, "text/plain; charset=utf-8",
                                 "GET only\n");
      } else {
        response = HandleGet(line.substr(sp1 + 1, sp2 - sp1 - 1));
      }
      // MSG_NOSIGNAL: a client that hung up mid-response yields EPIPE (we
      // just drop it) instead of a process-killing SIGPIPE.
      std::size_t sent = 0;
      while (sent < response.size()) {
        const ssize_t wrote = ::send(fd, response.data() + sent,
                                     response.size() - sent, MSG_NOSIGNAL);
        if (wrote < 0 && errno == EINTR) {
          continue;
        }
        if (wrote <= 0) {
          break;
        }
        sent += static_cast<std::size_t>(wrote);
      }
      ::close(fd);
      clients.erase(fd);
    }
  }
  for (const auto& [fd, buffer] : clients) {
    ::close(fd);
  }
}

}  // namespace vrl::obs
