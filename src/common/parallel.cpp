#include "common/parallel.hpp"

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "common/parse.hpp"

namespace vrl {
namespace {

/// Process-wide thread-count override (0 = none).  Setup-time knob: written
/// by ScopedThreadCount before fan-outs run, read by every
/// DefaultThreadCount call.
std::atomic<std::size_t> g_thread_override{0};

/// Set on ParallelFor worker threads; nested calls see it and run inline.
thread_local bool t_in_parallel_region = false;

std::size_t ThreadCountFromEnv() {
  const char* env = std::getenv("VRL_THREADS");
  if (env == nullptr) {
    return 0;
  }
  const std::optional<std::uint64_t> value = ParseWholeUnsigned(env);
  if (!value || *value == 0) {
    return 0;  // Malformed or zero: fall through to hardware concurrency.
  }
  return static_cast<std::size_t>(*value);
}

/// The threads a fan-out of `n` items runs on: 1 means the serial loop.
std::size_t FanOutThreads(std::size_t n, std::size_t threads) {
  if (InParallelRegion()) {
    return 1;
  }
  const std::size_t count = threads == 0 ? DefaultThreadCount() : threads;
  return count < n ? count : n;
}

/// `count` threads, each running `work` once inside a parallel region.  The
/// first exception any of them throws is kept and rethrown by Join.  The
/// threads live from construction to Join, so a thread-local a fan-out
/// fills (a command log's spare chunks) lives exactly as long as the
/// fan-out.
class WorkerThreads {
 public:
  WorkerThreads(std::size_t count, std::function<void()> work)
      : work_(std::move(work)) {
    threads_.reserve(count);
    try {
      for (std::size_t t = 0; t < count; ++t) {
        threads_.emplace_back([this] { Run(); });
      }
    } catch (...) {
      JoinAll();  // The threads already started claim every item first.
      throw;
    }
  }

  WorkerThreads(const WorkerThreads&) = delete;
  WorkerThreads& operator=(const WorkerThreads&) = delete;

  /// Joins the threads when Join was not reached.
  ~WorkerThreads() { JoinAll(); }

  /// Waits for every thread, then rethrows the first exception, if any.
  void Join() {
    JoinAll();
    if (first_error_ != nullptr) {
      std::rethrow_exception(first_error_);
    }
  }

 private:
  void Run() {
    t_in_parallel_region = true;
    try {
      work_();
    } catch (...) {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (first_error_ == nullptr) {
        first_error_ = std::current_exception();
      }
    }
  }

  void JoinAll() {
    for (std::thread& thread : threads_) {
      if (thread.joinable()) {
        thread.join();
      }
    }
  }

  std::function<void()> work_;
  std::mutex mutex_;
  std::exception_ptr first_error_;  ///< Guarded by mutex_ until JoinAll.
  std::vector<std::thread> threads_;
};

}  // namespace

std::size_t DefaultThreadCount() {
  const std::size_t override_count =
      g_thread_override.load(std::memory_order_relaxed);
  if (override_count != 0) {
    return override_count;
  }
  const std::size_t env_count = ThreadCountFromEnv();
  if (env_count != 0) {
    return env_count;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

ScopedThreadCount::ScopedThreadCount(std::size_t threads)
    : previous_(g_thread_override.exchange(threads,
                                           std::memory_order_relaxed)) {}

ScopedThreadCount::~ScopedThreadCount() {
  g_thread_override.store(previous_, std::memory_order_relaxed);
}

bool InParallelRegion() { return t_in_parallel_region; }

void ParallelFor(std::string_view /*label*/, std::size_t n,
                 const std::function<void(std::size_t)>& body,
                 std::size_t threads) {
  const std::size_t count = FanOutThreads(n, threads);
  if (count <= 1) {
    // Single-thread fallback / nested call: plain serial loop, same index
    // order, same results (the determinism contract makes this exact).
    for (std::size_t i = 0; i < n; ++i) {
      body(i);
    }
    return;
  }

  // The work queue is an atomic index counter: workers claim items in
  // index order.  After any item throws, workers stop claiming new items
  // (remaining items are skipped — the exception aborts the fan-out) and
  // the first exception is rethrown from Join().
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  WorkerThreads workers(count, [&] {
    while (!failed.load(std::memory_order_relaxed)) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= n) {
        return;
      }
      try {
        body(i);
      } catch (...) {
        failed.store(true, std::memory_order_relaxed);
        throw;
      }
    }
  });
  workers.Join();
}

void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& body,
                 std::size_t threads) {
  ParallelFor("parallel_for", n, body, threads);
}

}  // namespace vrl
