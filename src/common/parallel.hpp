#pragma once

#include <cstddef>
#include <functional>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

/// \file parallel.hpp
/// Deterministic parallel execution for embarrassingly parallel fan-outs
/// (design-space sweeps, fault-campaign legs, Monte-Carlo grids).
///
/// The determinism contract (docs/PARALLEL.md) every caller must follow:
///
///  1. Work items are independent: no shared *mutable* state crosses items.
///     Shared inputs must be const and internally cache-free.
///  2. Results go into pre-sized slots indexed by the item index, so the
///     output layout never depends on completion order.
///  3. Any randomness inside an item comes from an Rng seeded from per-item
///     configuration (a sweep point's seed, a campaign leg's own fault
///     schedule) — never from a generator shared across items.
///
/// Under that contract, ParallelFor(n, body) produces bit-identical results
/// for every thread count, including the single-thread fallback, and for
/// every task completion order.  tests/parallel_test.cpp enforces this for
/// the library's own fan-outs; the CI ThreadSanitizer job checks rule 1.
///
/// Thread-count resolution (first match wins):
///   explicit `threads` argument > ScopedThreadCount > VRL_THREADS
///   environment variable > std::thread::hardware_concurrency.

namespace vrl {

/// Threads ParallelFor uses when the caller does not pass an explicit
/// count: the process-wide override if set, else a positive integer
/// VRL_THREADS, else hardware_concurrency (at least 1).
std::size_t DefaultThreadCount();

/// RAII override of DefaultThreadCount: `threads` (0 clears the override)
/// until the scope ends, then the previous override.  The reproducibility
/// harness runs the same fan-out at 1/2/8 threads through this.
class ScopedThreadCount {
 public:
  explicit ScopedThreadCount(std::size_t threads);
  ~ScopedThreadCount();
  ScopedThreadCount(const ScopedThreadCount&) = delete;
  ScopedThreadCount& operator=(const ScopedThreadCount&) = delete;

 private:
  std::size_t previous_;
};

/// True on a ParallelFor worker thread.  ParallelFor consults this to run
/// nested parallel loops inline (rule: nesting is safe, never
/// oversubscribed, never deadlocked).
bool InParallelRegion();

/// Runs body(0) ... body(n-1), distributing items over `threads` worker
/// threads (0 = DefaultThreadCount(), at most n) that the call starts and
/// joins; the calling thread only waits.  Items are claimed from an atomic
/// work queue in index order but may complete in any order — callers must
/// follow the determinism contract above.  Falls back to a plain serial
/// loop when one thread suffices (n <= 1, threads == 1) or when called
/// from inside another parallel region.  The first exception thrown by any
/// item is rethrown after all workers stop claiming new items.
///
/// `label` names the fan-out at the call site; it does not affect
/// execution.
void ParallelFor(std::string_view label, std::size_t n,
                 const std::function<void(std::size_t)>& body,
                 std::size_t threads = 0);

/// Unlabelled ParallelFor (label "parallel_for").
void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& body,
                 std::size_t threads = 0);

/// ParallelFor collecting fn(i) into slot i of the returned vector — the
/// pre-sized-slot pattern of the determinism contract, packaged.  The
/// result type must be default-constructible.
template <typename Fn>
auto ParallelMap(std::string_view label, std::size_t n, Fn&& fn,
                 std::size_t threads = 0)
    -> std::vector<std::decay_t<decltype(fn(std::size_t{0}))>> {
  std::vector<std::decay_t<decltype(fn(std::size_t{0}))>> out(n);
  ParallelFor(
      label, n, [&](std::size_t i) { out[i] = fn(i); }, threads);
  return out;
}

/// Unlabelled ParallelMap (label "parallel_for").
template <typename Fn>
auto ParallelMap(std::size_t n, Fn&& fn, std::size_t threads = 0)
    -> std::vector<std::decay_t<decltype(fn(std::size_t{0}))>> {
  return ParallelMap("parallel_for", n, std::forward<Fn>(fn), threads);
}

}  // namespace vrl
