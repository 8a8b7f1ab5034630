//===- ThreadPool.cpp -----------------------------------------------------===//

#include "support/ThreadPool.h"

#include "support/FaultInject.h"
#include "support/Trace.h"

#include <cassert>
#include <cstdlib>
#include <stdexcept>

using namespace ac::support;

// A worker exception at a chosen task. Two sites because the capture
// paths differ: `pool.post.throw` exercises the fire-and-forget
// FirstError machinery (the throw happens before the callable runs, so
// only workerLoop's handler can catch it); `pool.graph.throw` fires
// inside a task-graph node, exercising deterministic error selection and
// dependent skipping. Arm the one whose recovery path you are testing.
static const FaultSite FaultPostThrow("pool.post.throw");
static const FaultSite FaultGraphThrow("pool.graph.throw");

unsigned ThreadPool::defaultJobs() {
  const char *E = std::getenv("AC_JOBS");
  if (!E)
    return 1;
  long N = std::strtol(E, nullptr, 10);
  if (N < 1)
    return 1;
  if (N > MaxJobs)
    return MaxJobs;
  return static_cast<unsigned>(N);
}

ThreadPool::ThreadPool(unsigned Jobs) {
  if (Jobs == 0)
    Jobs = defaultJobs();
  Workers.reserve(Jobs);
  for (unsigned I = 0; I != Jobs; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> L(M);
    Stop = true;
  }
  CV.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::post(std::function<void()> Task) {
  if (Trace::enabled()) {
    // Make queue pressure visible: the gap between posting and a worker
    // picking the task up becomes its own span on the worker's track.
    uint64_t PostNs = Trace::nowNs();
    Task = [PostNs, T = std::move(Task)] {
      Trace::interval("pool.queue_gap", PostNs, Trace::nowNs());
      Span Sp("pool.task");
      T();
    };
  }
  {
    std::lock_guard<std::mutex> L(M);
    assert(!Stop && "submit on a stopped pool");
    Queue.push_back(std::move(Task));
  }
  CV.notify_one();
}

void ThreadPool::drain() {
  std::unique_lock<std::mutex> L(M);
  Idle.wait(L, [this] { return Queue.empty() && Active == 0; });
}

std::exception_ptr ThreadPool::takeError() {
  std::lock_guard<std::mutex> L(M);
  std::exception_ptr E = FirstError;
  FirstError = nullptr;
  return E;
}

void ThreadPool::rethrowIfError() {
  if (std::exception_ptr E = takeError())
    std::rethrow_exception(E);
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::function<void()> Task;
    {
      std::unique_lock<std::mutex> L(M);
      CV.wait(L, [this] { return Stop || !Queue.empty(); });
      if (Queue.empty())
        return; // Stop requested and nothing left to drain.
      Task = std::move(Queue.front());
      Queue.pop_front();
      ++Active;
    }
    std::exception_ptr E;
    try {
      if (FaultPostThrow.fire())
        throw std::runtime_error(
            "fault-injected worker exception (pool.post.throw)");
      Task();
    } catch (...) {
      E = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> L(M);
      --Active;
      if (E && !FirstError)
        FirstError = E;
    }
    Idle.notify_all();
  }
}

//===----------------------------------------------------------------------===//
// Dependency-graph execution
//===----------------------------------------------------------------------===//

namespace {

/// Shared bookkeeping for one runTaskGraph call.
struct GraphRun {
  const std::vector<std::function<void()>> &Tasks;
  std::vector<std::vector<unsigned>> Dependents;
  std::vector<unsigned> Remaining; ///< unfinished dependency count
  std::vector<bool> Skipped;
  std::mutex M;
  std::condition_variable Done;
  size_t Settled = 0; ///< finished or skipped
  std::exception_ptr Error;
  unsigned ErrorIdx = ~0u;

  explicit GraphRun(const std::vector<std::function<void()>> &Tasks)
      : Tasks(Tasks), Dependents(Tasks.size()),
        Remaining(Tasks.size(), 0), Skipped(Tasks.size(), false) {}
};

/// Marks \p I and everything depending on it skipped. Caller holds G.M.
void skipFrom(GraphRun &G, unsigned I) {
  if (G.Skipped[I])
    return;
  G.Skipped[I] = true;
  ++G.Settled;
  for (unsigned D : G.Dependents[I])
    if (!G.Skipped[D])
      skipFrom(G, D);
}

void runTask(ac::support::ThreadPool &Pool,
             const std::shared_ptr<GraphRun> &G, unsigned I);

/// Caller holds G->M. Schedules every dependent of \p I that became ready.
void finishTask(ac::support::ThreadPool &Pool,
                const std::shared_ptr<GraphRun> &G, unsigned I) {
  ++G->Settled;
  for (unsigned D : G->Dependents[I]) {
    if (G->Skipped[D])
      continue;
    assert(G->Remaining[D] > 0 && "dependency counting out of sync");
    if (--G->Remaining[D] == 0)
      Pool.post([&Pool, G, D] { runTask(Pool, G, D); });
  }
}

void runTask(ac::support::ThreadPool &Pool,
             const std::shared_ptr<GraphRun> &G, unsigned I) {
  std::exception_ptr E;
  try {
    if (FaultGraphThrow.fire())
      throw std::runtime_error(
          "fault-injected worker exception (pool.graph.throw)");
    G->Tasks[I]();
  } catch (...) {
    E = std::current_exception();
  }
  {
    std::lock_guard<std::mutex> L(G->M);
    if (E) {
      // Deterministic error choice: keep the lowest failed index.
      if (I < G->ErrorIdx) {
        G->ErrorIdx = I;
        G->Error = E;
      }
      ++G->Settled;
      for (unsigned D : G->Dependents[I])
        skipFrom(*G, D);
    } else {
      finishTask(Pool, G, I);
    }
  }
  G->Done.notify_all();
}

} // namespace

void ac::support::runTaskGraph(
    ThreadPool &Pool, const std::vector<std::function<void()>> &Tasks,
    const std::vector<std::vector<unsigned>> &Deps) {
  assert(Deps.size() == Tasks.size() && "one dependency list per task");
  if (Tasks.empty())
    return;
  auto G = std::make_shared<GraphRun>(Tasks);
  for (unsigned I = 0; I != Tasks.size(); ++I) {
    for (unsigned D : Deps[I]) {
      assert(D < Tasks.size() && "dependency index out of range");
      assert(D != I && "task depending on itself");
      G->Dependents[D].push_back(I);
      ++G->Remaining[I];
    }
  }
  {
    std::lock_guard<std::mutex> L(G->M);
    for (unsigned I = 0; I != Tasks.size(); ++I)
      if (G->Remaining[I] == 0)
        Pool.post([&Pool, G, I = I] { runTask(Pool, G, I); });
  }
  std::unique_lock<std::mutex> L(G->M);
  G->Done.wait(L, [&] { return G->Settled == Tasks.size(); });
  assert(G->Settled == Tasks.size() &&
         "task graph did not settle (cycle in Deps?)");
  if (G->Error)
    std::rethrow_exception(G->Error);
}
