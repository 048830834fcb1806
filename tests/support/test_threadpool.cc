/**
 * @file
 * Tests for the thread pool and parallelFor.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "support/threadpool.hh"

namespace oma
{
namespace
{

TEST(ThreadPool, ResolveThreadsNeverZero)
{
    EXPECT_GE(ThreadPool::resolveThreads(0), 1u);
    EXPECT_EQ(ThreadPool::resolveThreads(1), 1u);
    EXPECT_EQ(ThreadPool::resolveThreads(7), 7u);
}

TEST(ThreadPool, EmptyRangeNeverCallsBody)
{
    ThreadPool pool(4);
    std::atomic<int> calls{0};
    pool.parallelFor(0, 0, [&](std::size_t) { ++calls; });
    pool.parallelFor(5, 5, [&](std::size_t) { ++calls; });
    pool.parallelFor(7, 3, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, RangeSmallerThanThreadCount)
{
    ThreadPool pool(8);
    std::vector<std::atomic<int>> hits(3);
    pool.parallelFor(0, 3, [&](std::size_t i) { ++hits[i]; });
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, EveryIndexRunsExactlyOnce)
{
    ThreadPool pool(4);
    constexpr std::size_t n = 10000;
    std::vector<std::atomic<int>> hits(n);
    pool.parallelFor(0, n, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, NonZeroBeginRespected)
{
    ThreadPool pool(3);
    Mutex m;
    std::set<std::size_t> seen;
    pool.parallelFor(10, 20, [&](std::size_t i) {
        LockGuard lock(m);
        seen.insert(i);
    });
    ASSERT_EQ(seen.size(), 10u);
    EXPECT_EQ(*seen.begin(), 10u);
    EXPECT_EQ(*seen.rbegin(), 19u);
}

TEST(ThreadPool, PoolIsReusableAcrossJobs)
{
    ThreadPool pool(4);
    std::atomic<int> total{0};
    for (int round = 0; round < 20; ++round)
        pool.parallelFor(0, 17, [&](std::size_t) { ++total; });
    EXPECT_EQ(total.load(), 20 * 17);
}

TEST(ThreadPool, ExceptionPropagatesToCaller)
{
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(0, 100,
                                  [&](std::size_t i) {
                                      if (i == 42)
                                          throw std::runtime_error("boom");
                                  }),
                 std::runtime_error);
    // The pool survives a throwing job.
    std::atomic<int> calls{0};
    pool.parallelFor(0, 8, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls.load(), 8);
}

TEST(ThreadPool, SmallestThrowingIndexWins)
{
    // Every index throws; the rethrown exception must deterministically
    // be the one raised by the smallest index regardless of schedule.
    ThreadPool pool(4);
    for (int round = 0; round < 10; ++round) {
        try {
            pool.parallelFor(3, 64, [&](std::size_t i) {
                throw std::runtime_error(std::to_string(i));
            });
            FAIL() << "expected an exception";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "3");
        }
    }
}

TEST(ThreadPool, NestedSubmissionRunsInlineWithoutDeadlock)
{
    // A body submitting to its own pool must not deadlock waiting for
    // workers that are busy running the outer job; nested calls run
    // inline on the submitting lane instead.
    ThreadPool pool(4);
    std::atomic<int> inner{0};
    pool.parallelFor(0, 8, [&](std::size_t) {
        pool.parallelFor(0, 5, [&](std::size_t) { ++inner; });
    });
    EXPECT_EQ(inner.load(), 8 * 5);
}

TEST(ThreadPool, SingleLanePoolRunsOnCallerThread)
{
    ThreadPool pool(1);
    const auto caller = std::this_thread::get_id();
    std::vector<std::thread::id> ids(4);
    pool.parallelFor(0, 4, [&](std::size_t i) {
        ids[i] = std::this_thread::get_id();
    });
    for (const auto &id : ids)
        EXPECT_EQ(id, caller);
}

TEST(ThreadPool, CallerJobRunsOnTheCallingLaneWhileWorkersClaim)
{
    // The job starts while the workers claim indices (it waits until
    // one has begun), then the caller joins the remaining indices.
    // The job is no index: stats count only the range.
    ThreadPool pool(4);
    const auto caller = std::this_thread::get_id();
    std::atomic<int> started{0};
    std::vector<std::atomic<int>> hits(64);
    std::thread::id job_lane;
    int job_runs = 0;
    pool.parallelFor(
        0, hits.size(),
        [&](std::size_t i) {
            ++started;
            ++hits[i];
        },
        [&] {
            job_lane = std::this_thread::get_id();
            ++job_runs;
            while (started.load() == 0)
                std::this_thread::yield();
        });
    EXPECT_EQ(job_runs, 1);
    EXPECT_EQ(job_lane, caller);
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
    EXPECT_EQ(pool.stats().jobs, 1u);
    EXPECT_EQ(pool.stats().indices, hits.size());
}

TEST(ThreadPool, CallerJobRunsFirstOnOneLaneAndWhenNested)
{
    ThreadPool serial(1);
    std::vector<int> order;
    serial.parallelFor(
        0, 3, [&](std::size_t i) { order.push_back(int(i)); },
        [&] { order.push_back(-1); });
    EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2}));

    ThreadPool pool(4);
    std::vector<std::vector<int>> inner(4);
    pool.parallelFor(0, inner.size(), [&](std::size_t i) {
        pool.parallelFor(
            0, 2, [&](std::size_t j) { inner[i].push_back(int(j)); },
            [&] { inner[i].push_back(-1); });
    });
    for (const auto &o : inner)
        EXPECT_EQ(o, (std::vector<int>{-1, 0, 1}));
}

TEST(ThreadPool, CallerJobExceptionWaitsForEveryIndex)
{
    // The job's exception is rethrown only after every index ran, and
    // ahead of an index's, so nothing the bodies use is released
    // while a worker still runs one.
    ThreadPool pool(4);
    std::atomic<int> calls{0};
    try {
        pool.parallelFor(
            0, 100,
            [&](std::size_t i) {
                ++calls;
                if (i == 7)
                    throw std::runtime_error("index");
            },
            [] { throw std::runtime_error("job"); });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "job");
    }
    EXPECT_EQ(calls.load(), 100);
}

TEST(ThreadPool, StatsCountTopLevelJobsAndIndices)
{
    ThreadPool pool(4);
    pool.parallelFor(0, 10, [](std::size_t) {});
    pool.parallelFor(5, 9, [](std::size_t) {});
    const ThreadPoolStats stats = pool.stats();
    EXPECT_EQ(stats.jobs, 2u);
    EXPECT_EQ(stats.indices, 14u);
}

TEST(ThreadPool, StatsReadableWhileJobRuns)
{
    // Regression for the unsynchronized stats() read: the accessor is
    // now lock-guarded, so concurrent observers during a running job
    // are race-free (the TSan job runs this suite).
    ThreadPool pool(4);
    std::atomic<bool> stop{false};
    std::thread observer([&] {
        while (!stop.load()) {
            const ThreadPoolStats stats = pool.stats();
            ASSERT_LE(stats.jobs, 64u);
        }
    });
    for (int round = 0; round < 64; ++round)
        pool.parallelFor(0, 32, [](std::size_t) {});
    stop.store(true);
    observer.join();
    EXPECT_EQ(pool.stats().jobs, 64u);
}

TEST(ParallelForHelper, SerialWhenOneThread)
{
    const auto caller = std::this_thread::get_id();
    std::vector<std::thread::id> ids(6);
    parallelFor(1, 0, 6, [&](std::size_t i) {
        ids[i] = std::this_thread::get_id();
    });
    for (const auto &id : ids)
        EXPECT_EQ(id, caller);
}

TEST(ParallelForHelper, CoversRangeWithManyThreads)
{
    constexpr std::size_t n = 500;
    std::vector<std::atomic<int>> hits(n);
    parallelFor(8, 0, n, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i].load(), 1);
}

} // namespace
} // namespace oma
