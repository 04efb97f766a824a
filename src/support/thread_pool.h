/// \file
/// Fixed-size thread pool used to evaluate population fitness in parallel
/// (paper Sec III-E evaluates 256 individuals per generation; we parallelize
/// across host cores since each evaluation is an independent simulation).

#ifndef GEVO_SUPPORT_THREAD_POOL_H
#define GEVO_SUPPORT_THREAD_POOL_H

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace gevo {

/// Simple task-queue thread pool with a blocking drain.
class ThreadPool {
  public:
    /// Spawn \p workers threads (defaults to hardware concurrency, min 1).
    explicit ThreadPool(std::size_t workers = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /// Enqueue a task for asynchronous execution.
    void submit(std::function<void()> task);

    /// Block until every submitted task has finished.
    void drain();

    /// Number of worker threads.
    std::size_t workerCount() const { return threads_.size(); }

    /// Run \p fn(i) for i in [0, n) across the pool and wait for completion.
    void parallelFor(std::size_t n, const std::function<void(std::size_t)>& fn);

  private:
    void workerLoop();

    std::vector<std::thread> threads_;
    std::queue<std::function<void()>> tasks_;
    std::mutex mutex_;
    std::condition_variable cv_;
    std::condition_variable idleCv_;
    std::size_t inFlight_ = 0;
    bool stop_ = false;
};

/// Process-wide idle-core helpers for work the calling thread shares,
/// such as the blocks of one speculative kernel launch. The helper
/// threads are created once, on first use, one per hardware thread
/// beyond the first, and wait on a condition variable while idle, so a
/// caller never starts a thread of its own.
///
/// A child that fork() made of a process running this code (the
/// isolated backend's sessions, workerd sessions) never uses helpers:
/// available() is 0 there, so it neither waits on a helper that did not
/// survive the fork nor starts helpers of its own.
class HelperPool {
  public:
    /// Helpers a caller of share() may get: hardware threads minus one,
    /// or 0 in a forked child.
    static std::size_t available();

    /// Run \p fn on the calling thread and on up to \p helpers idle
    /// helpers, and return when every participant has returned. \p fn
    /// must be safe to run concurrently, and must return promptly when
    /// there is no work left: a helper may join after the caller's own
    /// call has returned.
    static void share(const std::function<void()>& fn, std::size_t helpers);

  private:
    struct Job;

    HelperPool();
    static HelperPool& instance();
    void helperLoop();

    std::vector<std::thread> threads_;
    std::mutex mutex_; ///< Guards queue_ and the queued Jobs' counters.
    std::vector<Job*> queue_; ///< Jobs that still take helpers.
    std::condition_variable wakeCv_;
    std::condition_variable doneCv_;
};

} // namespace gevo

#endif // GEVO_SUPPORT_THREAD_POOL_H
