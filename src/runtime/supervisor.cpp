#include "runtime/supervisor.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <sstream>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "runtime/codec.hpp"
#include "telemetry/recorder.hpp"

namespace vrl::runtime {
namespace {

using Clock = std::chrono::steady_clock;

/// Write end of the result pipe in a worker child; -1 in the parent.
int g_worker_fd = -1;
/// Heartbeat call counter (child only) — rate-limits pipe writes.
std::uint64_t g_heartbeat_calls = 0;

/// Heartbeats per pipe write: campaign ticks arrive thousands per second,
/// one byte per tick would be pure overhead.
constexpr std::uint64_t kHeartbeatStride = 256;

/// Per-attempt telemetry publish state (child only, or test seam).  The
/// delta baseline advances only on *delivered* frames, which is what makes
/// drop accounting exact: a dropped frame's updates stay in the baseline
/// diff until a frame gets through.
std::size_t g_worker_leg = 0;
std::size_t g_worker_attempt = 1;
std::uint64_t g_frames_sent = 0;
std::uint64_t g_frames_dropped = 0;
std::uint64_t g_last_events_recorded = 0;
telemetry::MetricsSnapshot g_last_sent;
Clock::time_point g_last_publish;

/// Lineage records one frame counts at most after a burst; older ones are
/// summarised by `events_recorded`.
constexpr std::uint64_t kMaxFrameEvents = 64;

Clock::duration PublishInterval() {
  static const Clock::duration interval = [] {
    double ms = 50.0;
    if (const char* env = std::getenv("VRL_WORKER_PUBLISH_MS");
        env != nullptr && *env != '\0') {
      char* end = nullptr;
      const double parsed = std::strtod(env, &end);
      if (end != env && parsed >= 0.0) {
        ms = parsed;
      }
    }
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(ms));
  }();
  return interval;
}

double BackoffSeconds(const WorkerPoolOptions& options, std::size_t attempt) {
  double delay = options.backoff_base_s;
  for (std::size_t i = 1; i < attempt && delay < options.backoff_cap_s; ++i) {
    delay *= 2.0;
  }
  return std::min(delay, options.backoff_cap_s);
}

void WriteFully(int fd, const char* data, std::size_t size) {
  std::size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      ::_exit(3);  // Parent is gone; nothing left to report to.
    }
    written += static_cast<std::size_t>(n);
  }
}

/// Child side: run the leg, write one result frame, exit without running
/// static destructors (the parent's state is not ours to unwind).
[[noreturn]] void RunChild(int write_fd, std::size_t leg, std::size_t attempt,
                           const std::function<std::string(std::size_t)>& fn) {
  g_worker_fd = write_fd;
  g_worker_leg = leg;
  g_worker_attempt = attempt;
  ::signal(SIGPIPE, SIG_IGN);  // A dead parent must not kill us mid-write.

  // Chaos hook (docs/RESILIENCE.md): make every worker attempt crash or
  // hang, exercising the retry/timeout/degradation paths end to end.
  if (const char* chaos = std::getenv("VRL_WORKER_CRASH");
      chaos != nullptr && *chaos != '\0') {
    if (std::strcmp(chaos, "kill") == 0) {
      ::raise(SIGKILL);
    }
    if (std::strcmp(chaos, "hang") == 0) {
      for (;;) {
        ::pause();
      }
    }
  }

  char tag = 'R';
  std::string body;
  try {
    body = fn(leg);
  } catch (const std::exception& error) {
    tag = 'E';
    body = error.what();
  } catch (...) {
    tag = 'E';
    body = "unknown exception";
  }
  const std::string frame = FrameMessage(tag, body);
  WriteFully(write_fd, frame.data(), frame.size());
  ::_exit(0);
}

/// Parses a child's accumulated pipe bytes: leading heartbeats, then one
/// complete result frame.  False when the stream ended mid-frame (crash).
bool ParseResultFrame(const std::string& buffer, char* tag,
                      std::string* body) {
  std::size_t i = 0;
  while (i < buffer.size() && buffer[i] == 'H') {
    ++i;
  }
  if (i + 9 > buffer.size()) {
    return false;
  }
  const char t = buffer[i];
  if (t != 'R' && t != 'E') {
    return false;
  }
  std::uint64_t length = 0;
  for (std::size_t b = 0; b < 8; ++b) {
    length |= static_cast<std::uint64_t>(
                  static_cast<unsigned char>(buffer[i + 1 + b]))
              << (8 * b);
  }
  if (buffer.size() != i + 9 + length) {
    return false;
  }
  *tag = t;
  *body = buffer.substr(i + 9, static_cast<std::size_t>(length));
  return true;
}

std::string DescribeExit(int status) {
  if (WIFSIGNALED(status)) {
    return std::string("killed by signal ") + std::to_string(WTERMSIG(status));
  }
  if (WIFEXITED(status)) {
    return "exited with status " + std::to_string(WEXITSTATUS(status));
  }
  return "ended with status " + std::to_string(status);
}

struct Child {
  pid_t pid = -1;
  int fd = -1;
  std::size_t leg = 0;
  std::size_t attempt = 1;
  std::size_t slot = 0;  ///< Stable worker label (lowest free at spawn).
  std::string buffer;
  Clock::time_point deadline;
  Clock::time_point last_activity;   ///< Last pipe byte (fleet liveness).
  std::uint64_t frames = 0;          ///< 'S' frames received this attempt.
  std::uint64_t frames_dropped = 0;  ///< Child's latest cumulative count.
};

struct PendingLeg {
  std::size_t leg = 0;
  std::size_t attempt = 1;
  Clock::time_point ready;
};

void ReapChild(Child& child) {
  int status = 0;
  ::kill(child.pid, SIGKILL);
  while (::waitpid(child.pid, &status, 0) < 0 && errno == EINTR) {
  }
  ::close(child.fd);
}

}  // namespace

bool InWorkerChild() { return g_worker_fd >= 0; }

void WorkerHeartbeat() {
  if (g_worker_fd < 0) {
    return;
  }
  if (g_heartbeat_calls++ % kHeartbeatStride != 0) {
    return;
  }
  const ssize_t rc = ::write(g_worker_fd, "H", 1);
  (void)rc;  // A full pipe or dead parent shows up at the result write.
}

std::string FrameMessage(char tag, std::string_view payload) {
  std::string frame;
  frame.reserve(9 + payload.size());
  frame.push_back(tag);
  const std::uint64_t length = payload.size();
  for (std::size_t i = 0; i < 8; ++i) {
    frame.push_back(static_cast<char>((length >> (8 * i)) & 0xFF));
  }
  frame.append(payload);
  return frame;
}

bool TryWriteFrame(int fd, std::string_view frame) {
  const int flags = ::fcntl(fd, F_GETFL);
  if (flags >= 0 && (flags & O_NONBLOCK) == 0) {
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  }
  bool delivered = true;
  std::size_t written = 0;
  while (written < frame.size()) {
    const ssize_t n =
        ::write(fd, frame.data() + written, frame.size() - written);
    if (n > 0) {
      written += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (written == 0) {
        delivered = false;  // Nothing escaped: drop the frame whole.
        break;
      }
      // Mid-frame: finish blocking so the stream stays framed — a torn
      // frame would desynchronise every frame after it.
      if (flags >= 0) {
        ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
      }
      WriteFully(fd, frame.data() + written, frame.size() - written);
      written = frame.size();
      break;
    }
    delivered = false;  // Dead reader; the result write will classify it.
    break;
  }
  if (flags >= 0) {
    ::fcntl(fd, F_SETFL, flags);
  }
  return delivered;
}

void WorkerPublishTelemetry(const telemetry::Recorder& recorder, bool force) {
  if (g_worker_fd < 0) {
    return;
  }
  const auto now = Clock::now();
  if (!force && g_last_publish != Clock::time_point{} &&
      now - g_last_publish < PublishInterval()) {
    return;
  }
  g_last_publish = now;

  telemetry::WorkerFrame frame;
  frame.leg = g_worker_leg;
  frame.attempt = g_worker_attempt;
  frame.seq = g_frames_sent + 1;
  frame.frames_dropped = g_frames_dropped;
  const telemetry::Lineage& lineage = recorder.lineage();
  frame.events_recorded = lineage.recorded();
  frame.events_dropped = lineage.dropped();

  telemetry::MetricsSnapshot current = recorder.Snapshot();
  frame.delta = current.Diff(g_last_sent);

  // Retained records not yet counted by a delivered frame.
  frame.events = std::min<std::uint64_t>(
      {lineage.recorded() - g_last_events_recorded, lineage.size(),
       kMaxFrameEvents});

  std::ostringstream payload;
  EncodeWorkerFrame(payload, frame);
  if (!TryWriteFrame(g_worker_fd, FrameMessage('S', payload.str()))) {
    ++g_frames_dropped;  // The accumulated delta rides the next frame.
    return;
  }
  ++g_frames_sent;
  g_last_sent = std::move(current);
  g_last_events_recorded = lineage.recorded();
}

int SetWorkerPipeForTesting(int fd) {
  const int previous = g_worker_fd;
  g_worker_fd = fd;
  g_heartbeat_calls = 0;
  g_frames_sent = 0;
  g_frames_dropped = 0;
  g_last_events_recorded = 0;
  g_last_sent = telemetry::MetricsSnapshot{};
  g_last_publish = {};
  return previous;
}

void RunSupervised(
    std::size_t begin, std::size_t end,
    const std::function<std::string(std::size_t)>& leg_fn,
    const std::function<void(std::size_t, const std::string&)>& commit,
    const WorkerPoolOptions& options,
    const std::function<void(const WorkerEvent&)>& on_event) {
  if (begin >= end) {
    return;
  }
  if (options.workers == 0 || options.leg_timeout_s <= 0.0 ||
      options.backoff_base_s <= 0.0 ||
      options.backoff_cap_s < options.backoff_base_s ||
      options.fleet_interval_s <= 0.0) {
    throw ConfigError("RunSupervised: invalid worker-pool options");
  }
  const auto timeout =
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(options.leg_timeout_s));
  const auto fleet_interval =
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(options.fleet_interval_s));

  // Fleet accounting (telemetry::FleetStatus): incident tallies, frames
  // received from live pipes, and drops from children already gone.
  std::uint64_t retries = 0;
  std::uint64_t crashes = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t errors = 0;
  std::uint64_t frames_received_total = 0;
  std::uint64_t frames_dropped_completed = 0;
  Clock::time_point last_fleet;

  const auto emit = [&](WorkerEvent::Kind kind, std::size_t leg,
                        std::size_t attempt, std::string detail) {
    switch (kind) {
      case WorkerEvent::Kind::kCrash:
        ++crashes;
        break;
      case WorkerEvent::Kind::kTimeout:
        ++timeouts;
        break;
      case WorkerEvent::Kind::kError:
        ++errors;
        break;
      case WorkerEvent::Kind::kRetry:
        ++retries;
        break;
      default:
        break;
    }
    if (on_event) {
      on_event({kind, leg, attempt, std::move(detail)});
    }
  };

  std::deque<PendingLeg> pending;
  for (std::size_t leg = begin; leg < end; ++leg) {
    pending.push_back({leg, 1, Clock::now()});
  }
  std::map<std::size_t, std::string> staged;  ///< Done, awaiting commit turn.
  std::size_t next_commit = begin;
  std::vector<Child> children;
  std::size_t consecutive_failures = 0;
  bool pool_degraded = false;

  const auto commit_ready = [&] {
    for (auto it = staged.find(next_commit); it != staged.end();
         it = staged.find(next_commit)) {
      commit(next_commit, it->second);
      staged.erase(it);
      ++next_commit;
    }
  };

  const auto run_inline = [&](std::size_t leg) {
    staged.emplace(leg, leg_fn(leg));
    commit_ready();
  };

  const auto handle_failure = [&](std::size_t leg, std::size_t attempt,
                                  WorkerEvent::Kind kind,
                                  const std::string& detail) {
    emit(kind, leg, attempt, detail);
    ++consecutive_failures;
    if (pool_degraded) {
      pending.push_back({leg, attempt, Clock::now()});
      return;
    }
    if (consecutive_failures >= options.degrade_after) {
      pool_degraded = true;
      emit(WorkerEvent::Kind::kPoolDegraded, leg, attempt,
           std::to_string(consecutive_failures) +
               " consecutive worker failures; running remaining legs "
               "in-process");
      for (Child& child : children) {
        ReapChild(child);
        frames_dropped_completed += child.frames_dropped;
        pending.push_back({child.leg, child.attempt, Clock::now()});
      }
      children.clear();
      pending.push_back({leg, attempt, Clock::now()});
      return;
    }
    if (attempt < options.max_retries) {
      const double delay = BackoffSeconds(options, attempt);
      char text[32];
      std::snprintf(text, sizeof text, "retry in %.3fs", delay);
      emit(WorkerEvent::Kind::kRetry, leg, attempt, text);
      pending.push_back(
          {leg, attempt + 1,
           Clock::now() + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(delay))});
    } else {
      emit(WorkerEvent::Kind::kLegDegraded, leg, attempt,
           "worker retries exhausted; running in-process");
      run_inline(leg);
    }
  };

  const auto spawn = [&](std::size_t leg, std::size_t attempt) {
    int fds[2];
    if (::pipe(fds) != 0) {
      throw ConfigError(std::string("RunSupervised: pipe() failed: ") +
                        std::strerror(errno));
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      const int fork_errno = errno;
      ::close(fds[0]);
      ::close(fds[1]);
      throw ConfigError(std::string("RunSupervised: fork() failed: ") +
                        std::strerror(fork_errno));
    }
    if (pid == 0) {
      ::close(fds[0]);
      RunChild(fds[1], leg, attempt, leg_fn);  // Never returns.
    }
    ::close(fds[1]);
    ::fcntl(fds[0], F_SETFL, O_NONBLOCK);
    // Lowest free slot, so /fleet worker labels stay stable as children
    // come and go.
    std::size_t slot = 0;
    for (std::size_t probe = 0; probe <= children.size(); ++probe) {
      bool taken = false;
      for (const Child& child : children) {
        taken = taken || child.slot == probe;
      }
      if (!taken) {
        slot = probe;
        break;
      }
    }
    Child child;
    child.pid = pid;
    child.fd = fds[0];
    child.leg = leg;
    child.attempt = attempt;
    child.slot = slot;
    child.deadline = Clock::now() + timeout;
    child.last_activity = Clock::now();
    children.push_back(std::move(child));
  };

  // Consumes the child's buffered heartbeats and every *complete* 'S'
  // telemetry frame, leaving partial frames and the terminal result frame
  // for ParseResultFrame.  Must run even with on_frame unset — an
  // unconsumed 'S' frame would make the final result parse fail.
  const auto drain_frames = [&](Child& child) {
    std::size_t i = 0;
    for (;;) {
      while (i < child.buffer.size() && child.buffer[i] == 'H') {
        ++i;
      }
      if (i >= child.buffer.size() || child.buffer[i] != 'S' ||
          child.buffer.size() - i < 9) {
        break;
      }
      std::uint64_t length = 0;
      for (std::size_t b = 0; b < 8; ++b) {
        length |= static_cast<std::uint64_t>(
                      static_cast<unsigned char>(child.buffer[i + 1 + b]))
                  << (8 * b);
      }
      if (child.buffer.size() - i - 9 < length) {
        break;  // Frame still in flight.
      }
      ++child.frames;
      ++frames_received_total;
      try {
        LineCursor cursor(std::string_view(child.buffer)
                              .substr(i + 9, static_cast<std::size_t>(length)));
        const telemetry::WorkerFrame frame = DecodeWorkerFrame(cursor);
        child.frames_dropped = frame.frames_dropped;
        if (options.on_frame) {
          options.on_frame(child.slot, frame);
        }
      } catch (const ParseError&) {
        // A frame that decodes badly means a corrupted stream; keep the
        // framing and let the terminal result parse classify the child.
      }
      i += 9 + static_cast<std::size_t>(length);
    }
    if (i > 0) {
      child.buffer.erase(0, i);
    }
  };

  const auto emit_fleet = [&](Clock::time_point now) {
    if (!options.on_fleet) {
      return;
    }
    telemetry::FleetStatus status;
    status.workers_configured = options.workers;
    status.legs_total = end - begin;
    status.legs_committed = next_commit - begin;
    status.legs_running = children.size();
    status.legs_pending = pending.size();
    status.legs_staged = staged.size();
    status.retries = retries;
    status.crashes = crashes;
    status.timeouts = timeouts;
    status.errors = errors;
    status.pool_degraded = pool_degraded;
    status.frames_received = frames_received_total;
    status.frames_dropped = frames_dropped_completed;
    for (const Child& child : children) {
      status.frames_dropped += child.frames_dropped;
      status.active.push_back(
          {child.slot, child.leg, child.attempt,
           std::chrono::duration<double>(now - child.last_activity).count(),
           child.frames});
    }
    std::sort(status.active.begin(), status.active.end(),
              [](const telemetry::FleetWorkerStatus& a,
                 const telemetry::FleetWorkerStatus& b) {
                return a.worker < b.worker;
              });
    options.on_fleet(status);
  };

  try {
    while (next_commit < end) {
      if (options.on_fleet) {
        const auto fleet_now = Clock::now();
        if (last_fleet == Clock::time_point{} ||
            fleet_now - last_fleet >= fleet_interval) {
          last_fleet = fleet_now;
          emit_fleet(fleet_now);
        }
      }
      if (pool_degraded) {
        // Degraded: everything not yet staged runs on this thread, leg
        // order, no further supervision.
        std::sort(pending.begin(), pending.end(),
                  [](const PendingLeg& a, const PendingLeg& b) {
                    return a.leg < b.leg;
                  });
        for (const PendingLeg& p : pending) {
          run_inline(p.leg);
        }
        pending.clear();
        commit_ready();
        continue;
      }

      // Dispatch ready legs into free worker slots.
      auto now = Clock::now();
      for (auto it = pending.begin();
           it != pending.end() && children.size() < options.workers;) {
        if (it->ready <= now) {
          spawn(it->leg, it->attempt);
          it = pending.erase(it);
        } else {
          ++it;
        }
      }

      if (children.empty()) {
        if (pending.empty()) {
          break;  // Everything staged/committed.
        }
        const auto earliest =
            std::min_element(pending.begin(), pending.end(),
                             [](const PendingLeg& a, const PendingLeg& b) {
                               return a.ready < b.ready;
                             })
                ->ready;
        std::this_thread::sleep_until(
            std::min(earliest, now + std::chrono::milliseconds(200)));
        continue;
      }

      // Poll worker pipes; any readable byte refreshes the liveness
      // deadline (heartbeats and result bytes alike).
      std::vector<pollfd> fds;
      fds.reserve(children.size());
      auto poll_deadline = children.front().deadline;
      for (const Child& child : children) {
        fds.push_back({child.fd, POLLIN, 0});
        poll_deadline = std::min(poll_deadline, child.deadline);
      }
      for (const PendingLeg& p : pending) {
        poll_deadline = std::min(poll_deadline, p.ready);
      }
      now = Clock::now();
      const auto wait_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              poll_deadline - now)
              .count();
      const int poll_timeout =
          static_cast<int>(std::clamp<long long>(wait_ms, 0, 200));
      const int events =
          ::poll(fds.data(), static_cast<nfds_t>(fds.size()), poll_timeout);
      if (events < 0 && errno != EINTR) {
        throw ConfigError(std::string("RunSupervised: poll() failed: ") +
                          std::strerror(errno));
      }

      // Drain readable pipes; collect finished children, then act on them
      // (acting may mutate `children`, so never both at once).
      struct Finished {
        std::size_t leg;
        std::size_t attempt;
        bool ok;
        WorkerEvent::Kind kind;
        std::string payload_or_detail;
      };
      std::vector<Finished> finished;
      now = Clock::now();
      for (std::size_t i = 0; i < children.size();) {
        Child& child = children[i];
        bool closed = false;
        if (events > 0 && (fds[i].revents & (POLLIN | POLLHUP | POLLERR))) {
          for (;;) {
            char chunk[4096];
            const ssize_t got = ::read(child.fd, chunk, sizeof chunk);
            if (got > 0) {
              child.buffer.append(chunk, static_cast<std::size_t>(got));
              child.deadline = now + timeout;
              child.last_activity = now;
              continue;
            }
            if (got == 0) {
              closed = true;
            } else if (errno == EINTR) {
              continue;
            }
            break;  // EOF or would-block.
          }
        }
        if (!child.buffer.empty()) {
          drain_frames(child);
        }
        if (closed) {
          int status = 0;
          while (::waitpid(child.pid, &status, 0) < 0 && errno == EINTR) {
          }
          ::close(child.fd);
          frames_dropped_completed += child.frames_dropped;
          char tag = 0;
          std::string body;
          if (ParseResultFrame(child.buffer, &tag, &body)) {
            finished.push_back({child.leg, child.attempt, tag == 'R',
                                WorkerEvent::Kind::kError, std::move(body)});
          } else {
            finished.push_back({child.leg, child.attempt, false,
                                WorkerEvent::Kind::kCrash,
                                DescribeExit(status) +
                                    " without a result frame"});
          }
          children.erase(children.begin() + static_cast<std::ptrdiff_t>(i));
          fds.erase(fds.begin() + static_cast<std::ptrdiff_t>(i));
          continue;
        }
        if (child.deadline <= now) {
          ReapChild(child);
          frames_dropped_completed += child.frames_dropped;
          char text[64];
          std::snprintf(text, sizeof text, "no heartbeat for %.1fs",
                        options.leg_timeout_s);
          finished.push_back({child.leg, child.attempt, false,
                              WorkerEvent::Kind::kTimeout, text});
          children.erase(children.begin() + static_cast<std::ptrdiff_t>(i));
          fds.erase(fds.begin() + static_cast<std::ptrdiff_t>(i));
          continue;
        }
        ++i;
      }

      for (Finished& f : finished) {
        if (f.ok) {
          consecutive_failures = 0;
          staged.emplace(f.leg, std::move(f.payload_or_detail));
          commit_ready();
        } else {
          handle_failure(f.leg, f.attempt, f.kind, f.payload_or_detail);
        }
      }
    }
    emit_fleet(Clock::now());  // Final state: everything committed.
  } catch (...) {
    for (Child& child : children) {
      ReapChild(child);
    }
    throw;
  }
}

}  // namespace vrl::runtime
