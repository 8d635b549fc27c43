//===- support/ThreadPool.h - Fixed-size worker pool ------------*- C++ -*-===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fixed-size thread pool used by the campaign engine to fan out per-test
/// jobs. Design points that matter for deterministic campaigns:
///
///  - submit() returns a std::future, so callers aggregate results in
///    *submission* order regardless of completion order — the mechanism by
///    which an N-thread campaign is bit-identical to a serial one.
///  - Exceptions thrown by a job are captured in its future and rethrown
///    from get() on the aggregating thread; they never kill a worker.
///  - Cancellation is cooperative: requestCancel() raises a flag that jobs
///    poll via cancelRequested(); queued jobs still run (so every future
///    becomes ready) but are expected to return early.
///  - The destructor drains the queue: all submitted jobs execute before
///    the workers join, so no future is ever abandoned mid-flight.
///
/// JobBatch wraps the submit-then-collect pattern so that no job can outlive
/// the caller's stack frame, even when a job or the caller throws.
///
//===----------------------------------------------------------------------===//

#ifndef SUPPORT_THREADPOOL_H
#define SUPPORT_THREADPOOL_H

#include <atomic>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace spvfuzz {

class ThreadPool {
public:
  /// Spawns \p Workers worker threads; 0 means one per hardware thread.
  explicit ThreadPool(size_t Workers = 0);

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Runs every queued job to completion, then joins the workers.
  ~ThreadPool();

  size_t workerCount() const { return Workers.size(); }

  /// Enqueues \p Job and returns a future for its result. The future
  /// observes the job's return value or its thrown exception.
  template <typename Fn>
  auto submit(Fn &&Job) -> std::future<std::invoke_result_t<std::decay_t<Fn>>> {
    using Result = std::invoke_result_t<std::decay_t<Fn>>;
    // packaged_task is move-only; std::function requires copyable callables,
    // so the task rides in a shared_ptr.
    auto Task =
        std::make_shared<std::packaged_task<Result()>>(std::forward<Fn>(Job));
    std::future<Result> Future = Task->get_future();
    enqueue([Task]() { (*Task)(); });
    return Future;
  }

  /// Raises the cooperative cancellation flag. Jobs already queued still
  /// run (their futures must become ready), but well-behaved jobs check
  /// cancelRequested() and return early.
  void requestCancel() { Cancel.store(true, std::memory_order_release); }
  bool cancelRequested() const {
    return Cancel.load(std::memory_order_acquire);
  }
  /// Lowers the cancellation flag again (a pool outlives many campaigns).
  void clearCancel() { Cancel.store(false, std::memory_order_release); }

  /// Blocks until the queue is empty and every worker is idle.
  void wait();

private:
  void enqueue(std::function<void()> Job);
  void workerLoop();

  std::vector<std::thread> Workers;
  mutable std::mutex Mutex;
  std::condition_variable WorkAvailable;
  std::condition_variable Idle;
  std::deque<std::function<void()>> Queue;
  size_t Busy = 0;
  bool Stopping = false;
  std::atomic<bool> Cancel{false};
};

/// Jobs started together and collected together, in submission order. With
/// a pool the constructor queues every job; without one (a serial run)
/// collect() runs them inline, in order, on the calling thread, so callers
/// keep one code path for both. No job outlives its batch: collect() waits
/// for every job before it rethrows the first exception (in submission
/// order), and a batch destroyed uncollected (an early exit, or an
/// exception unwinding past it) lets its queued jobs skip their work and
/// waits for the ones already running. Jobs may therefore reference the
/// caller's locals declared before the batch. A skipped job yields
/// ResultT{}, which nobody observes.
template <typename ResultT> class JobBatch {
public:
  JobBatch(ThreadPool *Pool, std::vector<std::function<ResultT()>> Jobs)
      : Skip(std::make_shared<std::atomic<bool>>(false)) {
    if (!Pool) {
      Inline = std::move(Jobs);
      return;
    }
    Futures.reserve(Jobs.size());
    for (std::function<ResultT()> &Job : Jobs)
      Futures.push_back(Pool->submit(
          [Skip = Skip, Job = std::move(Job)]() -> ResultT {
            if (Skip->load(std::memory_order_acquire))
              return ResultT{};
            return Job();
          }));
  }
  JobBatch(JobBatch &&) = default;
  JobBatch &operator=(JobBatch &&) = delete;
  JobBatch(const JobBatch &) = delete;
  JobBatch &operator=(const JobBatch &) = delete;

  ~JobBatch() {
    if (Skip)
      Skip->store(true, std::memory_order_release);
    for (std::future<ResultT> &Future : Futures)
      if (Future.valid())
        Future.wait();
  }

  /// Waits for (or, without a pool, runs) every job and returns the results
  /// in submission order. Call at most once.
  std::vector<ResultT> collect() {
    std::vector<ResultT> Results;
    Results.reserve(Inline.size() + Futures.size());
    for (std::function<ResultT()> &Job : Inline)
      Results.push_back(Job());
    std::exception_ptr First;
    for (std::future<ResultT> &Future : Futures) {
      try {
        Results.push_back(Future.get());
      } catch (...) {
        if (!First)
          First = std::current_exception();
      }
    }
    if (First)
      std::rethrow_exception(First);
    return Results;
  }

private:
  std::shared_ptr<std::atomic<bool>> Skip;
  std::vector<std::function<ResultT()>> Inline;
  std::vector<std::future<ResultT>> Futures;
};

} // namespace spvfuzz

#endif // SUPPORT_THREADPOOL_H
