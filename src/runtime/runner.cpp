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
    const std::string& journal_path) {
  std::unique_ptr<LegJournal> journal;
  std::vector<std::string> payloads;
  payloads.reserve(legs);
  if (!journal_path.empty()) {
    journal = std::make_unique<LegJournal>(journal_path, campaign,
                                           config_digest, legs);
    payloads = journal->committed();
    if (!payloads.empty()) {
      std::fprintf(stderr, "runtime: resumed %zu/%zu legs from %s%s\n",
                   payloads.size(), legs, journal_path.c_str(),
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
        if (journal != nullptr) {
          journal->Append(begin + i, slots[i]);
          MaybeCrashAfterCommit();  // After the append: the leg is durable.
        }
        payloads.push_back(std::move(slots[i]));
      });
  return payloads;
}

}  // namespace vrl::runtime
