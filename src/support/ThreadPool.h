//===- ThreadPool.h - Fixed-size worker pool --------------------*- C++ -*-===//
//
// Part of the autocorres-cpp project, under the BSD 2-Clause License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size thread pool plus a dependency-graph executor. The
/// AutoCorres driver uses them to dispatch each function's abstraction
/// chain (L1 -> L2 -> HL -> WA) as one task whose dependencies are the
/// call-graph SCCs of its callees, so a function starts the moment the
/// last of its callees finishes — no per-phase barriers.
///
/// The pool size defaults to the AC_JOBS environment variable (1 when
/// unset), overridable per construction. Exceptions thrown by a task are
/// captured and rethrown to the caller: from the future for submit(),
/// from runTaskGraph() for graph tasks (lowest-index failure wins, so the
/// reported error is deterministic under any schedule), and — for raw
/// post() callables — from takeError()/rethrowIfError() instead of
/// std::terminate, so a throwing fire-and-forget task can never take the
/// whole daemon down.
///
//===----------------------------------------------------------------------===//

#ifndef AC_SUPPORT_THREADPOOL_H
#define AC_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace ac::support {

/// A fixed set of worker threads draining a FIFO task queue.
class ThreadPool {
public:
  /// Spawns \p Jobs workers; 0 means defaultJobs().
  explicit ThreadPool(unsigned Jobs = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  unsigned jobs() const { return static_cast<unsigned>(Workers.size()); }

  /// Enqueues a callable; the returned future yields its result and
  /// rethrows any exception it raised.
  template <typename F>
  auto submit(F &&Fn) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto Task = std::make_shared<std::packaged_task<R()>>(
        std::forward<F>(Fn));
    std::future<R> Fut = Task->get_future();
    post([Task] { (*Task)(); });
    return Fut;
  }

  /// The most worker threads any job count may ask for: AC_JOBS, a
  /// request's `jobs` and every tool's --jobs are bounded by it.
  static constexpr unsigned MaxJobs = 256;

  /// The AC_JOBS environment variable, clamped to [1, MaxJobs]; 1 when
  /// unset or unparsable.
  static unsigned defaultJobs();

  /// Low-level fire-and-forget enqueue: no future. An exception escaping
  /// the callable is captured (first one wins) rather than terminating;
  /// retrieve it with takeError(). submit() and runTaskGraph() are built
  /// on it and do their own capturing, so they never surface here.
  void post(std::function<void()> Task);

  /// Blocks until the queue is empty and no worker is running a task.
  /// Tasks posted concurrently with drain() extend the wait.
  void drain();

  /// The first exception captured from a post()ed task, or nullptr.
  /// Clears the slot so later failures are observable again.
  std::exception_ptr takeError();

  /// Rethrows takeError() if one is pending; no-op otherwise.
  void rethrowIfError();

private:
  void workerLoop();

  std::vector<std::thread> Workers;
  std::deque<std::function<void()>> Queue;
  std::mutex M;
  std::condition_variable CV;
  std::condition_variable Idle; ///< signalled when a task finishes
  unsigned Active = 0;          ///< workers currently running a task
  std::exception_ptr FirstError;
  bool Stop = false;
};

/// Executes \p Tasks on \p Pool respecting \p Deps: task i starts only
/// after every task in Deps[i] has finished. Returns once every task has
/// either finished or been skipped because a (transitive) dependency
/// failed. If any task threw, rethrows the exception of the failed task
/// with the lowest index. Indices in Deps must be < Tasks.size(); cycles
/// are a programming error (the affected tasks would never run) and are
/// reported by assertion.
void runTaskGraph(ThreadPool &Pool,
                  const std::vector<std::function<void()>> &Tasks,
                  const std::vector<std::vector<unsigned>> &Deps);

} // namespace ac::support

#endif // AC_SUPPORT_THREADPOOL_H
