#include "runtime/runner.hpp"

#include <signal.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <utility>

#include "common/parallel.hpp"
#include "common/parse.hpp"
#include "runtime/journal.hpp"
#include "telemetry/profiler.hpp"

namespace vrl::runtime {
namespace {

/// Crash injector (docs/RESILIENCE.md): SIGKILL after the N-th durable
/// commit made while VRL_CRASH_AFTER_LEG=N is set.  The environment is
/// consulted on every commit (never memoized) so death-test children that
/// set it after the parent initialized still honour it, and the counter
/// only advances while the variable is set so a resumed process crashes
/// after N *further* commits.
void MaybeCrashAfterCommit() {
  const char* env = std::getenv("VRL_CRASH_AFTER_LEG");
  if (env == nullptr) {
    return;
  }
  const std::optional<std::uint64_t> target = ParseWholeUnsigned(env);
  if (!target || *target == 0) {
    return;
  }
  static std::atomic<std::uint64_t> counted_commits{0};
  if (counted_commits.fetch_add(1, std::memory_order_relaxed) + 1 >=
      *target) {
    std::fprintf(stderr,
                 "runtime: VRL_CRASH_AFTER_LEG=%llu reached; injecting "
                 "SIGKILL\n",
                 static_cast<unsigned long long>(*target));
    std::fflush(stderr);
    ::raise(SIGKILL);
  }
}

}  // namespace

std::vector<std::string> RunJournaledLegs(
    const std::string& campaign, std::uint64_t config_digest,
    std::size_t legs, const std::function<std::string(std::size_t)>& leg_fn,
    const RuntimeOptions& options, RunnerStats* stats) {
  RunnerStats local;
  RunnerStats& st = stats != nullptr ? *stats : local;
  st = RunnerStats{};
  st.legs = legs;

  telemetry::Recorder* rec = options.runtime_telemetry;
  const auto count = [rec](std::string_view name, std::uint64_t n) {
    if (rec != nullptr && n > 0) {
      rec->counter(name).Add(n);
    }
  };
  // Leg-level transitions land in the runtime recorder's lineage ring.
  const auto note = [rec](telemetry::EventKind kind, std::size_t leg,
                          std::int64_t detail) {
    if (rec != nullptr) {
      telemetry::Lineage& lineage = rec->lineage();
      lineage.Add({kind, 0, static_cast<std::uint64_t>(leg),
                   lineage.Intern("runtime"), detail, 0.0});
    }
  };
  count("runtime.legs", legs);
  // Attribution frames live on the runtime recorder and only on this
  // thread: leg bodies run on pool threads or worker processes, but every
  // commit lands here, in increasing leg order (docs/RESILIENCE.md).
  telemetry::Profiler* profiler = rec == nullptr ? nullptr : rec->profiler();
  const telemetry::ScopedPhase legs_phase(profiler, "runtime.legs");

  std::unique_ptr<LegJournal> journal;
  std::vector<std::string> payloads;
  payloads.reserve(legs);
  if (!options.journal_path.empty()) {
    journal = std::make_unique<LegJournal>(options.journal_path, campaign,
                                           config_digest, legs);
    payloads = journal->committed();
    st.resumed = payloads.size();
    if (st.resumed > 0) {
      count("runtime.legs_resumed", st.resumed);
      for (std::size_t i = 0; i < st.resumed; ++i) {
        note(telemetry::EventKind::kLegResumed, i, 0);
      }
      std::fprintf(stderr, "runtime: resumed %zu/%zu legs from %s%s\n",
                   st.resumed, legs, options.journal_path.c_str(),
                   journal->dropped_tail() ? " (dropped a torn tail record)"
                                           : "");
    }
  }

  const std::size_t begin = payloads.size();
  const auto commit = [&](std::size_t index, const std::string& payload) {
    const telemetry::ScopedPhase commit_phase(profiler, "runtime.commit");
    if (journal != nullptr) {
      journal->Append(index, payload);
      ++st.journal_commits;
      count("runtime.journal_commits", 1);
      MaybeCrashAfterCommit();  // After the append: the leg is durable.
    }
    payloads.push_back(payload);
    ++st.executed;
    count("runtime.legs_executed", 1);
    if (options.on_leg) {
      options.on_leg(payloads.size(), legs);
    }
  };

  if (begin >= legs) {
    return payloads;  // Fully resumed.
  }

  if (options.workers > 0) {
    const auto on_event = [&](const WorkerEvent& event) {
      using Kind = WorkerEvent::Kind;
      switch (event.kind) {
        case Kind::kCrash:
          ++st.worker_crashes;
          count("runtime.worker_crashes", 1);
          std::fprintf(stderr,
                       "runtime: worker for leg %zu crashed (%s) on attempt "
                       "%zu/%zu\n",
                       event.leg, event.detail.c_str(), event.attempt,
                       options.max_retries);
          break;
        case Kind::kTimeout:
          ++st.worker_timeouts;
          count("runtime.worker_timeouts", 1);
          std::fprintf(stderr,
                       "runtime: worker for leg %zu timed out (%s) on "
                       "attempt %zu/%zu\n",
                       event.leg, event.detail.c_str(), event.attempt,
                       options.max_retries);
          break;
        case Kind::kError:
          ++st.worker_errors;
          count("runtime.worker_errors", 1);
          std::fprintf(stderr,
                       "runtime: worker for leg %zu reported an error on "
                       "attempt %zu/%zu: %s\n",
                       event.leg, event.attempt, options.max_retries,
                       event.detail.c_str());
          break;
        case Kind::kRetry:
          ++st.worker_retries;
          count("runtime.worker_retries", 1);
          note(telemetry::EventKind::kWorkerRetry, event.leg,
               static_cast<std::int64_t>(event.attempt));
          std::fprintf(stderr, "runtime: leg %zu attempt %zu failed; %s\n",
                       event.leg, event.attempt, event.detail.c_str());
          break;
        case Kind::kLegDegraded:
          ++st.leg_degradations;
          count("runtime.leg_degradations", 1);
          note(telemetry::EventKind::kWorkerDegraded, event.leg,
               static_cast<std::int64_t>(event.attempt));
          std::fprintf(stderr,
                       "runtime: leg %zu degraded to in-process execution "
                       "after %zu worker attempts\n",
                       event.leg, event.attempt);
          break;
        case Kind::kPoolDegraded:
          st.pool_degraded = true;
          count("runtime.pool_degradations", 1);
          note(telemetry::EventKind::kWorkerDegraded, event.leg, -1);
          std::fprintf(stderr,
                       "runtime: worker pool degraded to in-process "
                       "execution (%s)\n",
                       event.detail.c_str());
          break;
      }
    };
    WorkerPoolOptions pool;
    pool.workers = options.workers;
    pool.leg_timeout_s = options.leg_timeout_s;
    pool.max_retries = options.max_retries;
    pool.backoff_base_s = options.backoff_base_s;
    pool.backoff_cap_s = options.backoff_cap_s;
    pool.degrade_after = options.degrade_after;
    pool.on_frame = options.on_worker_frame;
    pool.on_fleet = options.on_fleet;
    pool.fleet_interval_s = options.fleet_interval_s;
    RunSupervised(begin, legs, leg_fn, commit, pool, on_event);
    return payloads;
  }

  // In-process path: bodies fan out under the determinism contract, the
  // commit stream stays ordered on this thread.
  std::vector<std::string> slots(legs - begin);
  ParallelForCommit(
      "runtime_legs", legs - begin,
      [&](std::size_t i) { slots[i] = leg_fn(begin + i); },
      [&](std::size_t i) {
        commit(begin + i, slots[i]);
        std::string().swap(slots[i]);  // Drop the duplicate early.
      },
      options.threads);
  return payloads;
}

}  // namespace vrl::runtime
