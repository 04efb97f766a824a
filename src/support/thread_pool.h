/// \file
/// The process's one set of worker threads. The in-process backend
/// evaluates a generation's population on it (paper Sec III-E evaluates
/// 256 individuals per generation; each evaluation is an independent
/// simulation), and a speculative kernel launch runs its blocks on it.

#ifndef GEVO_SUPPORT_THREAD_POOL_H
#define GEVO_SUPPORT_THREAD_POOL_H

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace gevo {

/// Process-wide idle-core helpers for work the calling thread shares:
/// a generation's evaluations, and the blocks of one speculative kernel
/// launch. share() nests: an evaluation running on a helper may share
/// its launch's blocks with whichever helpers are still idle. The helper
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
