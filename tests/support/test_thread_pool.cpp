#include "support/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <numeric>
#include <vector>

namespace gevo {
namespace {

TEST(ThreadPool, RunsAllTasks)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    for (int i = 0; i < 100; ++i)
        pool.submit([&count] { ++count; });
    pool.drain();
    EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, DrainIsReusable)
{
    ThreadPool pool(2);
    std::atomic<int> count{0};
    pool.submit([&count] { ++count; });
    pool.drain();
    EXPECT_EQ(count.load(), 1);
    pool.submit([&count] { ++count; });
    pool.submit([&count] { ++count; });
    pool.drain();
    EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, ParallelForCoversRange)
{
    ThreadPool pool(3);
    std::vector<int> hits(257, 0);
    pool.parallelFor(hits.size(),
                     [&hits](std::size_t i) { hits[i] = 1; });
    EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 257);
}

TEST(ThreadPool, WorkerCountDefaultsPositive)
{
    ThreadPool pool;
    EXPECT_GE(pool.workerCount(), 1u);
}

TEST(ThreadPool, DrainOnEmptyPoolReturns)
{
    ThreadPool pool(1);
    pool.drain(); // must not hang
    SUCCEED();
}

TEST(HelperPool, ShareReturnsOnceEveryParticipantHasLeft)
{
    // Work items are claimed from a shared counter, as the speculative
    // launch claims blocks; every item runs exactly once and has
    // finished by the time share() returns, however many helpers joined.
    for (const std::size_t helpers : {0u, 1u, 64u}) {
        std::atomic<int> next{0};
        std::atomic<int> done{0};
        std::vector<int> hits(200, 0);
        const std::function<void()> work = [&] {
            for (int i; (i = next++) < 200;) {
                ++hits[static_cast<std::size_t>(i)];
                ++done;
            }
        };
        HelperPool::share(work, helpers);
        EXPECT_EQ(done.load(), 200);
        EXPECT_EQ(std::count(hits.begin(), hits.end(), 1), 200);
    }
}

} // namespace
} // namespace gevo
