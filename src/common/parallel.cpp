#include "common/parallel.hpp"

#include <atomic>
#include <cstdlib>
#include <string>

#include "common/error.hpp"
#include "common/parse.hpp"

namespace vrl {
namespace {

/// Process-wide thread-count override (0 = none).  Setup-time knob: written
/// by SetThreadCountOverride before fan-outs run, read by every
/// DefaultThreadCount call.
std::atomic<std::size_t> g_thread_override{0};

/// Set while the current thread executes a ThreadPool task; nested
/// ParallelFor calls see it and run inline.
thread_local bool t_in_parallel_region = false;

struct ParallelRegionGuard {
  ParallelRegionGuard() { t_in_parallel_region = true; }
  ~ParallelRegionGuard() { t_in_parallel_region = false; }
};

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

void SetThreadCountOverride(std::size_t threads) {
  g_thread_override.store(threads, std::memory_order_relaxed);
}

ScopedThreadCount::ScopedThreadCount(std::size_t threads)
    : previous_(g_thread_override.load(std::memory_order_relaxed)) {
  SetThreadCountOverride(threads);
}

ScopedThreadCount::~ScopedThreadCount() { SetThreadCountOverride(previous_); }

bool InParallelRegion() { return t_in_parallel_region; }

std::uint64_t TaskSeed(std::uint64_t base_seed, std::uint64_t task_index) {
  // One SplitMix64 step over a Weyl-spread combination of base and index.
  std::uint64_t z = base_seed + 0x9e3779b97f4a7c15ULL * (task_index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t count = threads == 0 ? 1 : threads;
  workers_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (auto& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (stopping_) {
      throw ConfigError("ThreadPool: Submit after shutdown began");
    }
    queue_.push_back(std::move(task));
  }
  work_ready_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  all_done_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
  if (first_error_ != nullptr) {
    const std::exception_ptr error = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(error);
  }
}

void ThreadPool::WorkerLoop() {
  const ParallelRegionGuard region;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) {
      return;  // stopping_ and drained.
    }
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    ++in_flight_;
    lock.unlock();
    std::exception_ptr error;
    try {
      task();
    } catch (...) {
      error = std::current_exception();
    }
    lock.lock();
    if (error != nullptr && first_error_ == nullptr) {
      first_error_ = error;
    }
    --in_flight_;
    if (queue_.empty() && in_flight_ == 0) {
      all_done_.notify_all();
    }
  }
}

void ParallelFor(std::string_view /*label*/, std::size_t n,
                 const std::function<void(std::size_t)>& body,
                 std::size_t threads) {
  if (n == 0) {
    return;
  }
  std::size_t count = threads == 0 ? DefaultThreadCount() : threads;
  if (count > n) {
    count = n;
  }
  if (count <= 1 || InParallelRegion()) {
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
  // the first exception is rethrown from Wait().
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  ThreadPool pool(count);
  for (std::size_t w = 0; w < count; ++w) {
    pool.Submit([&next, &failed, &body, n] {
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
  }
  pool.Wait();
}

void ParallelFor(std::size_t n, const std::function<void(std::size_t)>& body,
                 std::size_t threads) {
  ParallelFor("parallel_for", n, body, threads);
}

void ParallelForCommit(std::string_view /*label*/, std::size_t n,
                       const std::function<void(std::size_t)>& body,
                       const std::function<void(std::size_t)>& commit,
                       std::size_t threads) {
  if (n == 0) {
    return;
  }
  std::size_t count = threads == 0 ? DefaultThreadCount() : threads;
  if (count > n) {
    count = n;
  }
  if (count <= 1 || InParallelRegion()) {
    for (std::size_t i = 0; i < n; ++i) {
      body(i);
      commit(i);
    }
    return;
  }

  // Same atomic work queue as ParallelFor, plus a completion bitmap the
  // calling thread watches: it commits the contiguous done-prefix while
  // workers keep claiming items behind it.
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex mutex;
  std::condition_variable progress;
  std::vector<char> done(n, 0);
  std::size_t active = count;
  ThreadPool pool(count);
  for (std::size_t w = 0; w < count; ++w) {
    pool.Submit([&] {
      const auto leave = [&] {
        {
          const std::lock_guard<std::mutex> lock(mutex);
          --active;
        }
        progress.notify_all();
      };
      try {
        while (!failed.load(std::memory_order_relaxed)) {
          const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= n) {
            break;
          }
          body(i);
          {
            const std::lock_guard<std::mutex> lock(mutex);
            done[i] = 1;
          }
          progress.notify_all();
        }
      } catch (...) {
        failed.store(true, std::memory_order_relaxed);
        leave();
        throw;
      }
      leave();
    });
  }

  std::size_t committed = 0;
  std::exception_ptr commit_error;
  {
    std::unique_lock<std::mutex> lock(mutex);
    while (committed < n) {
      progress.wait(lock, [&] { return done[committed] != 0 || active == 0; });
      if (done[committed] == 0) {
        break;  // Workers gone without finishing: a body threw.
      }
      lock.unlock();
      try {
        commit(committed);
      } catch (...) {
        commit_error = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
        lock.lock();
        break;
      }
      ++committed;
      lock.lock();
    }
  }
  pool.Wait();  // Rethrows the first body exception, if any.
  if (commit_error != nullptr) {
    std::rethrow_exception(commit_error);
  }
}

}  // namespace vrl
