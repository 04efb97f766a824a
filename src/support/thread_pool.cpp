#include "support/thread_pool.h"

#include <algorithm>
#include <atomic>

#include <pthread.h>

namespace gevo {

namespace {

/// Set in the child of every fork(): the helpers did not survive it.
/// Registered at static initialization, before anything can fork, so a
/// child of a process that never created the helpers runs without them
/// too instead of creating its own.
std::atomic<bool> gForkedChild{false};
[[maybe_unused]] const int gAtforkRegistered =
    ::pthread_atfork(nullptr, nullptr, [] { gForkedChild = true; });

} // namespace

/// One share() call. Lives on the caller's stack; the caller does not
/// return before every helper that joined has left.
struct HelperPool::Job {
    const std::function<void()>* fn = nullptr;
    std::size_t wanted = 0; ///< Helpers still to join.
    std::size_t active = 0; ///< Helpers inside *fn.
};

HelperPool::HelperPool()
{
    const unsigned hw = std::thread::hardware_concurrency();
    const std::size_t n = hw > 1 ? hw - 1 : 0;
    threads_.reserve(n);
    // Never joined: the pool is never destroyed (see instance()).
    for (std::size_t i = 0; i < n; ++i)
        threads_.emplace_back([this] { helperLoop(); });
}

HelperPool&
HelperPool::instance()
{
    // Leaked on purpose: helpers may still wait on its condition
    // variable while static destructors run at exit.
    static HelperPool* pool = new HelperPool;
    return *pool;
}

std::size_t
HelperPool::available()
{
    if (gForkedChild)
        return 0;
    return instance().threads_.size();
}

void
HelperPool::share(const std::function<void()>& fn, std::size_t helpers)
{
    helpers = std::min(helpers, available());
    if (helpers == 0) {
        fn();
        return;
    }
    HelperPool& pool = instance();
    Job job;
    job.fn = &fn;
    job.wanted = helpers;
    {
        std::lock_guard<std::mutex> lock(pool.mutex_);
        pool.queue_.push_back(&job);
    }
    // One wake-up per wanted helper: on a many-core host the others stay
    // asleep.
    for (std::size_t i = 0; i < helpers; ++i)
        pool.wakeCv_.notify_one();
    fn();
    std::unique_lock<std::mutex> lock(pool.mutex_);
    // Once the job is off the queue no helper can join it.
    const auto it = std::find(pool.queue_.begin(), pool.queue_.end(), &job);
    if (it != pool.queue_.end())
        pool.queue_.erase(it);
    pool.doneCv_.wait(lock, [&job] { return job.active == 0; });
}

void
HelperPool::helperLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
        wakeCv_.wait(lock, [this] { return !queue_.empty(); });
        Job* job = queue_.front();
        ++job->active;
        if (--job->wanted == 0)
            queue_.erase(queue_.begin());
        lock.unlock();
        (*job->fn)();
        lock.lock();
        if (--job->active == 0)
            doneCv_.notify_all();
    }
}

} // namespace gevo
