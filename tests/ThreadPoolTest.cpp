//===- tests/ThreadPoolTest.cpp - Worker-pool unit tests ------------------===//
//
// Part of the spirv-fuzz reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for support/ThreadPool: results come back in submission
/// order via futures, exceptions propagate through future::get, and
/// cooperative cancellation lets queued jobs drain cheaply. JobBatch never
/// lets a job outlive it, whether collected, dropped or failing.
///
//===----------------------------------------------------------------------===//

#include "support/ThreadPool.h"

#include "gtest/gtest.h"

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

using namespace spvfuzz;

namespace {

TEST(ThreadPool, ResultsComeBackInSubmissionOrder) {
  ThreadPool Pool(4);
  std::vector<std::future<size_t>> Futures;
  for (size_t I = 0; I < 64; ++I)
    Futures.push_back(Pool.submit([I] {
      if (I % 7 == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      return I * I;
    }));
  for (size_t I = 0; I < Futures.size(); ++I)
    EXPECT_EQ(Futures[I].get(), I * I);
}

TEST(ThreadPool, ExceptionsPropagateThroughFutures) {
  ThreadPool Pool(2);
  std::future<int> Ok = Pool.submit([] { return 7; });
  std::future<int> Bad = Pool.submit(
      []() -> int { throw std::runtime_error("job failed"); });
  EXPECT_EQ(Ok.get(), 7);
  EXPECT_THROW(Bad.get(), std::runtime_error);
  // The pool survives a throwing job.
  EXPECT_EQ(Pool.submit([] { return 8; }).get(), 8);
}

TEST(ThreadPool, CooperativeCancellationShortCircuitsQueuedJobs) {
  ThreadPool Pool(1);
  ASSERT_FALSE(Pool.cancelRequested());
  Pool.requestCancel();
  std::vector<std::future<bool>> Futures;
  for (size_t I = 0; I < 16; ++I)
    Futures.push_back(
        Pool.submit([&Pool] { return Pool.cancelRequested(); }));
  for (std::future<bool> &Future : Futures)
    EXPECT_TRUE(Future.get()) << "queued job did not observe the cancel";
  Pool.clearCancel();
  EXPECT_FALSE(Pool.cancelRequested());
  EXPECT_FALSE(Pool.submit([&Pool] { return Pool.cancelRequested(); }).get());
}

TEST(ThreadPool, ZeroWorkersFallsBackToHardwareConcurrency) {
  ThreadPool Pool(0);
  EXPECT_GE(Pool.workerCount(), 1u);
  EXPECT_EQ(Pool.submit([] { return 42; }).get(), 42);
}

TEST(ThreadPool, WaitBlocksUntilQueueDrains) {
  ThreadPool Pool(2);
  std::atomic<size_t> Done{0};
  for (size_t I = 0; I < 32; ++I)
    Pool.submit([&Done] {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      ++Done;
    });
  Pool.wait();
  EXPECT_EQ(Done.load(), 32u);
}

TEST(ThreadPool, DestructorDrainsOutstandingJobs) {
  std::atomic<size_t> Done{0};
  {
    ThreadPool Pool(1);
    for (size_t I = 0; I < 16; ++I)
      Pool.submit([&Done] { ++Done; });
  }
  EXPECT_EQ(Done.load(), 16u);
}

TEST(JobBatch, WaitsForEveryJobBeforeRethrowing) {
  // The first job fails at once while its siblings are still running. The
  // exception must not reach the caller until every sibling has finished:
  // they may reference the caller's locals.
  ThreadPool Pool(4);
  std::atomic<size_t> Finished{0};
  std::vector<std::function<int()>> Jobs;
  Jobs.push_back([]() -> int { throw std::runtime_error("job failed"); });
  for (int I = 1; I < 8; ++I)
    Jobs.push_back([&Finished, I] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      ++Finished;
      return I;
    });
  JobBatch<int> Batch(&Pool, std::move(Jobs));
  EXPECT_THROW(Batch.collect(), std::runtime_error);
  EXPECT_EQ(Finished.load(), 7u);
}

TEST(JobBatch, DroppedBatchSkipsQueuedJobsAndDrainsRunningOnes) {
  ThreadPool Pool(1);
  std::atomic<bool> Started{false};
  std::atomic<size_t> Ran{0};
  {
    std::vector<std::function<bool()>> Jobs;
    for (size_t I = 0; I < 8; ++I)
      Jobs.push_back([&Started, &Ran] {
        Started = true;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        ++Ran;
        return true;
      });
    JobBatch<bool> Batch(&Pool, std::move(Jobs));
    while (!Started)
      std::this_thread::yield();
  }
  // The running job finished before the batch died; the queued ones never
  // ran their work.
  EXPECT_EQ(Ran.load(), 1u);
  Pool.wait();
  EXPECT_EQ(Ran.load(), 1u);
}

TEST(JobBatch, WithoutAPoolJobsRunInlineAtCollect) {
  std::vector<size_t> Order;
  std::vector<std::function<size_t()>> Jobs;
  for (size_t I = 0; I < 4; ++I)
    Jobs.push_back([&Order, I] {
      Order.push_back(I);
      return I * 10;
    });
  JobBatch<size_t> Batch(nullptr, std::move(Jobs));
  EXPECT_TRUE(Order.empty());
  EXPECT_EQ(Batch.collect(), (std::vector<size_t>{0, 10, 20, 30}));
  EXPECT_EQ(Order, (std::vector<size_t>{0, 1, 2, 3}));
}

} // namespace
