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
  count("runtime.legs", legs);
  // Attribution frames live on the runtime recorder and only on this
  // thread: leg bodies run on pool threads, but every commit lands here, in
  // increasing leg order (docs/RESILIENCE.md).
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
      if (rec != nullptr) {
        // Resumed legs land in the runtime recorder's lineage ring.
        telemetry::Lineage& lineage = rec->lineage();
        for (std::size_t i = 0; i < st.resumed; ++i) {
          lineage.Add({telemetry::EventKind::kLegResumed, 0,
                       static_cast<std::uint64_t>(i),
                       lineage.Intern("runtime"), 0, 0.0});
        }
      }
      std::fprintf(stderr, "runtime: resumed %zu/%zu legs from %s%s\n",
                   st.resumed, legs, options.journal_path.c_str(),
                   journal->dropped_tail() ? " (dropped a torn tail record)"
                                           : "");
    }
  }

  const std::size_t begin = payloads.size();
  if (begin >= legs) {
    return payloads;  // Fully resumed.
  }

  // Bodies fan out under the determinism contract; the commit stream stays
  // ordered on this thread.
  std::vector<std::string> slots(legs - begin);
  ParallelForCommit(
      "runtime_legs", legs - begin,
      [&](std::size_t i) { slots[i] = leg_fn(begin + i); },
      [&](std::size_t i) {
        const telemetry::ScopedPhase commit_phase(profiler, "runtime.commit");
        if (journal != nullptr) {
          journal->Append(begin + i, slots[i]);
          ++st.journal_commits;
          count("runtime.journal_commits", 1);
          MaybeCrashAfterCommit();  // After the append: the leg is durable.
        }
        payloads.push_back(std::move(slots[i]));
        ++st.executed;
        count("runtime.legs_executed", 1);
      });
  return payloads;
}

}  // namespace vrl::runtime
