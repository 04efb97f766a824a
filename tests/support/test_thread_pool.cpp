#include "support/thread_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <vector>

namespace gevo {
namespace {

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

TEST(HelperPool, NestedShareFromAHelperCompletes)
{
    // An evaluation running on a helper shares its launch's blocks with
    // whichever helpers are idle: every outer item issues an inner
    // share(), and both levels must be complete when the outer one
    // returns, however many helpers joined at either level.
    constexpr int kOuter = 64;
    constexpr int kInner = 2000;
    for (const std::size_t helpers : {0u, 1u, 64u}) {
        std::atomic<int> nextOuter{0};
        std::vector<std::atomic<int>> innerDone(kOuter);
        const std::function<void()> outer = [&] {
            for (int o; (o = nextOuter++) < kOuter;) {
                std::atomic<int> nextInner{0};
                const std::function<void()> inner = [&] {
                    for (int i; (i = nextInner++) < kInner;)
                        ++innerDone[static_cast<std::size_t>(o)];
                };
                HelperPool::share(inner, helpers);
                EXPECT_EQ(innerDone[static_cast<std::size_t>(o)].load(),
                          kInner);
            }
        };
        HelperPool::share(outer, helpers);
        for (const auto& done : innerDone)
            EXPECT_EQ(done.load(), kInner);
    }
}

} // namespace
} // namespace gevo
