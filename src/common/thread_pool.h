#ifndef PRORP_COMMON_THREAD_POOL_H_
#define PRORP_COMMON_THREAD_POOL_H_

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace prorp::common {

/// Fixed-size worker pool used to run independent simulation arms
/// concurrently.  Determinism is preserved by construction: submitted
/// jobs never share mutable state (each arm owns its simulation and its
/// Rng streams), so scheduling order cannot perturb results — only
/// wall-clock time.  See DESIGN.md "Determinism".
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to >= 1).
  explicit ThreadPool(size_t num_threads);

  /// Drains outstanding work, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues `fn` and returns a future for its result.  `fn` must not
  /// submit to (or otherwise block on) this pool, or workers can deadlock
  /// waiting on themselves.
  template <typename Fn>
  auto Submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using R = std::invoke_result_t<Fn>;
    auto task = std::make_shared<std::packaged_task<R()>>(
        std::forward<Fn>(fn));
    std::future<R> result = task->get_future();
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.emplace_back([task] { (*task)(); });
    }
    wake_.notify_one();
    return result;
  }

  size_t num_threads() const { return workers_.size(); }

  /// Threads to use for parallel runs: the PRORP_NUM_THREADS environment
  /// variable when set (>= 1), otherwise std::thread::hardware_concurrency.
  static size_t DefaultThreads();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable wake_;
  std::deque<std::function<void()>> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// Runs every job on a temporary pool of `num_threads` workers and returns
/// the results in job order (index i of the result is job i), so callers
/// keep deterministic, serial-identical output ordering regardless of
/// which worker finished first.  With num_threads == 1 (or a single job)
/// the jobs run inline on the calling thread in order.
template <typename R>
std::vector<R> RunOnPool(std::vector<std::function<R()>> jobs,
                         size_t num_threads) {
  std::vector<R> results;
  results.reserve(jobs.size());
  if (num_threads <= 1 || jobs.size() <= 1) {
    for (auto& job : jobs) results.push_back(job());
    return results;
  }
  ThreadPool pool(std::min(num_threads, jobs.size()));
  std::vector<std::future<R>> futures;
  futures.reserve(jobs.size());
  for (auto& job : jobs) futures.push_back(pool.Submit(std::move(job)));
  for (auto& f : futures) results.push_back(f.get());
  return results;
}

}  // namespace prorp::common

#endif  // PRORP_COMMON_THREAD_POOL_H_
