#include "core/eval_backend.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <thread>

#include <poll.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include "core/codec.h"
#include "core/fault_inject.h"
#include "support/io.h"
#include "support/logging.h"
#include "support/strings.h"
#include "support/thread_pool.h"

namespace gevo::core {

std::string_view
evalFailureName(EvalFailure failure)
{
    switch (failure) {
      case EvalFailure::None: return "none";
      case EvalFailure::WorkerCrash: return "crash";
      case EvalFailure::WorkerTimeout: return "timeout";
      case EvalFailure::ProtocolError: return "protocol";
    }
    return "?";
}

namespace {

// ---- shared single-task evaluation ----

using StageClock = std::chrono::steady_clock;

std::uint64_t
stageNsSince(StageClock::time_point start)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            StageClock::now() - start)
            .count());
}

} // namespace

/// Both stages run through the caller's precompiled VariantCompiler and
/// record into the process-wide stage timers. (Exported: the farm worker
/// session serves connections with this exact body, so remote results
/// are bit-identical to in-process ones.)
EvalOutcome
evaluateTask(const VariantCompiler& compiler, const FitnessFunction& fitness,
             const std::vector<mut::Edit>& edits, VariantCache* programCache,
             std::string* programKeyOut)
{
    EvalOutcome out;
    const auto compileStart = StageClock::now();
    const CompiledVariant cv = compiler.compile(edits);
    recordCompileNs(stageNsSince(compileStart));
    if (programCache == nullptr) {
        out.result = cv.ok ? scoreVariant(fitness, cv)
                           : FitnessResult::fail(cv.failReason);
        out.simulated = true;
        return out;
    }
    if (!cv.ok) {
        out.result = FitnessResult::fail(cv.failReason);
        out.rejected = true;
        return out;
    }
    const std::string programKey = cv.programs.contentKey();
    FitnessResult cached;
    if (programCache->lookup(programKey, &cached)) {
        out.result = cached;
        return out;
    }
    out.result = scoreVariant(fitness, cv);
    out.simulated = true;
    programCache->insert(programKey, out.result);
    if (programKeyOut != nullptr)
        *programKeyOut = programKey;
    return out;
}

namespace {

// ---- in-process backend ----

class InProcessBackend final : public EvaluationBackend {
  public:
    InProcessBackend(const ir::Module& base, const FitnessFunction& fitness,
                     std::uint32_t threads)
        : compiler_(base), fitness_(fitness), pool_(threads),
          faults_(parseFaultSpecs())
    {
    }

    void
    evaluateBatch(const std::vector<const std::vector<mut::Edit>*>& batch,
                  VariantCache* programCache,
                  std::vector<EvalOutcome>* out) override
    {
        out->assign(batch.size(), EvalOutcome{});
        // Sequence numbers are assigned by batch position, not dispatch
        // order, so the fault schedule is thread-count independent.
        const std::uint64_t seqBase = nextSeq_;
        nextSeq_ += batch.size();
        pool_.parallelFor(batch.size(), [&](std::size_t i) {
            if (const auto fault = faultFor(faults_, seqBase + i)) {
                if (*fault == FaultKind::Crash)
                    faultCrash();
                if (*fault == FaultKind::Hang)
                    faultHang();
                // Garbage and the network kinds have no in-process
                // meaning: there is no pipe or socket to corrupt. Ignored,
                // so one spec can drive every backend.
            }
            (*out)[i] =
                evaluateTask(compiler_, fitness_, *batch[i], programCache,
                             nullptr);
        });
    }

    std::string
    describe() const override
    {
        return strformat("in-process x%zu", pool_.workerCount());
    }

  private:
    VariantCompiler compiler_;
    const FitnessFunction& fitness_;
    ThreadPool pool_;
    std::vector<FaultSpec> faults_;
    std::uint64_t nextSeq_ = 0;
};

// ---- isolated (fork-per-batch) backend ----

/// Request task index meaning "exit cleanly".
constexpr std::uint32_t kShutdownTask = 0xffffffffu;
/// Request message: u32 taskIndex | u64 sequence number.
constexpr std::size_t kRequestSize = 12;

class IsolatedBackend final : public EvaluationBackend {
  public:
    IsolatedBackend(const ir::Module& base, const FitnessFunction& fitness,
                    std::size_t workers, std::uint32_t timeoutMs)
        : compiler_(base), fitness_(fitness), workers_(std::max<std::size_t>(
                                                  workers, 1)),
          timeoutMs_(timeoutMs), faults_(parseFaultSpecs())
    {
        GEVO_ASSERT(timeoutMs_ > 0, "isolated watchdog needs a budget");
        // Requests may race a worker's death; that must surface as a
        // write error on the pipe, not a process-killing SIGPIPE.
        std::signal(SIGPIPE, SIG_IGN);
    }

    void
    evaluateBatch(const std::vector<const std::vector<mut::Edit>*>& batch,
                  VariantCache* programCache,
                  std::vector<EvalOutcome>* out) override
    {
        out->assign(batch.size(), EvalOutcome{});
        if (batch.empty())
            return;
        const std::uint64_t seqBase = nextSeq_;
        nextSeq_ += batch.size();

        // Fork the workers up front: they inherit the batch, the base
        // module, the fitness function and a copy-on-write snapshot of
        // the program cache — no serialization, and the parent does not
        // touch the cache until the batch completes, so respawned
        // workers see the identical snapshot.
        std::vector<Worker> ws(std::min(workers_, batch.size()));
        for (auto& w : ws)
            spawn(&w, ws, batch, programCache);

        std::size_t nextTask = 0;
        std::size_t done = 0;
        while (done < batch.size()) {
            dispatchIdle(ws, batch, programCache, &nextTask, &done, seqBase,
                         out);
            awaitResponses(ws, programCache, &done, out);
        }
        for (auto& w : ws)
            shutdownWorker(&w);
    }

    std::string
    describe() const override
    {
        return strformat("isolated x%zu (watchdog %u ms)", workers_,
                         timeoutMs_);
    }

  private:
    // The watchdog must measure wall-clock monotonically: a suspend/
    // resume or an NTP step across a system_clock deadline would fire
    // spurious WorkerTimeouts (and poison the quarantine set).
    using Clock = std::chrono::steady_clock;
    static_assert(Clock::is_steady, "watchdog clock must be monotonic");

    struct Worker {
        pid_t pid = -1;
        int reqFd = -1;  ///< Parent write end.
        int respFd = -1; ///< Parent read end.
        bool busy = false;
        std::uint32_t task = 0;
        Clock::time_point deadline{};
        /// Responses: stream frames holding u32 task | EvalOutcome.
        FrameReader reader;
    };

    [[noreturn]] void
    workerLoop(int reqFd, int respFd,
               const std::vector<const std::vector<mut::Edit>*>& batch,
               VariantCache* programCache) const
    {
        std::string payload;
        for (;;) {
            char req[kRequestSize];
            if (!readFull(reqFd, req, sizeof(req)))
                std::_Exit(0); // Parent closed the pipe: shutdown.
            const std::uint32_t task = readLeU32(req);
            const std::uint64_t seq = readLeU64(req + 4);
            if (task == kShutdownTask)
                std::_Exit(0);
            if (task >= batch.size())
                std::_Exit(3); // Corrupt request; parent reaps us.
            if (const auto fault = faultFor(faults_, seq)) {
                switch (*fault) {
                  case FaultKind::Crash:
                    faultCrash();
                  case FaultKind::Hang:
                    faultHang();
                  case FaultKind::Garbage:
                    faultGarbage(respFd);
                    std::_Exit(0);
                  case FaultKind::Disconnect:
                  case FaultKind::Delay:
                  case FaultKind::Truncate:
                    break; // Socket-only kinds: no meaning on a pipe.
                }
            }
            std::string programKey;
            const EvalOutcome outcome = evaluateTask(
                compiler_, fitness_, *batch[task], programCache, &programKey);

            payload.clear();
            appendLeU32(&payload, task);
            appendOutcome(&payload, outcome, programKey);
            if (!writeFrame(respFd, payload))
                std::_Exit(4); // Parent went away.
        }
    }

    void
    spawn(Worker* w, const std::vector<Worker>& all,
          const std::vector<const std::vector<mut::Edit>*>& batch,
          VariantCache* programCache) const
    {
        int req[2];
        int resp[2];
        if (::pipe(req) != 0 || ::pipe(resp) != 0)
            GEVO_FATAL("isolated backend: pipe failed: %s",
                       std::strerror(errno));
        const pid_t pid = ::fork();
        if (pid < 0)
            GEVO_FATAL("isolated backend: fork failed: %s",
                       std::strerror(errno));
        if (pid == 0) {
            // Child. Close the parent-side ends — including the other
            // workers' pipes: a sibling holding a crashed worker's
            // response write-end open would mask its EOF from the parent.
            ::close(req[1]);
            ::close(resp[0]);
            for (const auto& other : all) {
                if (other.reqFd >= 0)
                    ::close(other.reqFd);
                if (other.respFd >= 0)
                    ::close(other.respFd);
            }
            workerLoop(req[0], resp[1], batch, programCache);
        }
        ::close(req[0]);
        ::close(resp[1]);
        w->pid = pid;
        w->reqFd = req[1];
        w->respFd = resp[0];
        w->busy = false;
        w->reader.reset();
    }

    /// Close the parent-side pipes and collect the exit status. Safe on a
    /// worker that is already gone.
    void
    reapWorker(Worker* w) const
    {
        if (w->reqFd >= 0)
            ::close(w->reqFd);
        if (w->respFd >= 0)
            ::close(w->respFd);
        w->reqFd = w->respFd = -1;
        if (w->pid > 0) {
            int status = 0;
            while (::waitpid(w->pid, &status, 0) < 0 && errno == EINTR) {
            }
        }
        w->pid = -1;
        w->busy = false;
        w->reader.reset();
    }

    void
    killWorker(Worker* w) const
    {
        if (w->pid > 0)
            ::kill(w->pid, SIGKILL);
        reapWorker(w);
    }

    static bool
    sendRequest(const Worker& w, std::uint32_t task, std::uint64_t seq)
    {
        std::string msg;
        appendLeU32(&msg, task);
        appendLeU64(&msg, seq);
        return writeAll(w.reqFd, msg.data(), msg.size());
    }

    void
    shutdownWorker(Worker* w) const
    {
        if (w->pid > 0 && w->reqFd >= 0)
            sendRequest(*w, kShutdownTask, 0); // Best effort.
        reapWorker(w);
    }

    bool
    dispatch(Worker* w, std::uint32_t task, std::uint64_t seq) const
    {
        if (!sendRequest(*w, task, seq))
            return false;
        w->busy = true;
        w->task = task;
        w->deadline =
            Clock::now() + std::chrono::milliseconds(timeoutMs_);
        return true;
    }

    /// The deterministic invalid-individual penalty for a failed
    /// evaluation (no pids, no timestamps: the same variant scores the
    /// same penalty on every run).
    EvalOutcome
    failureOutcome(EvalFailure failure) const
    {
        EvalOutcome out;
        out.failure = failure;
        switch (failure) {
          case EvalFailure::WorkerCrash:
            out.result = FitnessResult::fail("evaluation worker crashed");
            break;
          case EvalFailure::WorkerTimeout:
            out.result = FitnessResult::fail(
                strformat("evaluation exceeded the %u ms watchdog",
                          timeoutMs_));
            break;
          case EvalFailure::ProtocolError:
            out.result =
                FitnessResult::fail("evaluation worker protocol error");
            break;
          case EvalFailure::None:
            GEVO_PANIC("failureOutcome(None)");
        }
        return out;
    }

    void
    dispatchIdle(std::vector<Worker>& ws,
                 const std::vector<const std::vector<mut::Edit>*>& batch,
                 VariantCache* programCache, std::size_t* nextTask,
                 std::size_t* done, std::uint64_t seqBase,
                 std::vector<EvalOutcome>* out) const
    {
        for (auto& w : ws) {
            if (w.busy || *nextTask >= batch.size())
                continue;
            const auto task = static_cast<std::uint32_t>(*nextTask);
            const std::uint64_t seq = seqBase + *nextTask;
            if (w.pid < 0)
                spawn(&w, ws, batch, programCache);
            if (!dispatch(&w, task, seq)) {
                // Died while idle; one fresh worker gets a second try. A
                // second failure means forking itself is broken — score
                // the task as a crash so the search still completes.
                reapWorker(&w);
                spawn(&w, ws, batch, programCache);
                if (!dispatch(&w, task, seq)) {
                    reapWorker(&w);
                    (*out)[task] = failureOutcome(EvalFailure::WorkerCrash);
                    ++*done;
                }
            }
            ++*nextTask;
        }
    }

    /// Block until a busy worker responds, dies, or times out; settle
    /// every event observed.
    void
    awaitResponses(std::vector<Worker>& ws, VariantCache* programCache,
                   std::size_t* done, std::vector<EvalOutcome>* out) const
    {
        std::vector<pollfd> fds;
        std::vector<std::size_t> owner;
        auto earliest = Clock::time_point::max();
        for (std::size_t i = 0; i < ws.size(); ++i) {
            if (!ws[i].busy)
                continue;
            fds.push_back({ws[i].respFd, POLLIN, 0});
            owner.push_back(i);
            earliest = std::min(earliest, ws[i].deadline);
        }
        if (fds.empty())
            return; // Nothing in flight (everything settled at dispatch).

        const auto now = Clock::now();
        const auto budget = std::chrono::duration_cast<
            std::chrono::milliseconds>(earliest - now);
        const int timeout = earliest <= now
                                ? 0
                                : static_cast<int>(std::min<long long>(
                                      budget.count() + 1, 1 << 30));
        const int rc = ::poll(fds.data(),
                              static_cast<nfds_t>(fds.size()), timeout);
        if (rc < 0) {
            if (errno == EINTR)
                return; // E.g. SIGINT while stopping: just re-loop.
            GEVO_PANIC("isolated backend: poll failed: %s",
                       std::strerror(errno));
        }
        for (std::size_t k = 0; k < fds.size(); ++k) {
            if (fds[k].revents & (POLLIN | POLLHUP | POLLERR))
                drainWorker(&ws[owner[k]], programCache, done, out);
        }
        // Watchdog: reap anyone past deadline (workers are respawned
        // lazily at the next dispatch).
        const auto after = Clock::now();
        for (auto& w : ws) {
            if (!w.busy || after < w.deadline)
                continue;
            const std::uint32_t task = w.task;
            killWorker(&w);
            (*out)[task] = failureOutcome(EvalFailure::WorkerTimeout);
            ++*done;
        }
    }

    /// Read whatever the worker has written and settle complete frames.
    void
    drainWorker(Worker* w, VariantCache* programCache, std::size_t* done,
                std::vector<EvalOutcome>* out) const
    {
        const ssize_t r = w->reader.fill(w->respFd);
        if (r < 0 && errno == EAGAIN)
            return;
        if (r <= 0) {
            // EOF (or an unreadable pipe): the worker died (segfault,
            // abort, OOM kill, or a garbage-then-exit) with a task still
            // in flight.
            const bool hadTask = w->busy;
            const std::uint32_t task = w->task;
            reapWorker(w);
            if (hadTask) {
                (*out)[task] = failureOutcome(EvalFailure::WorkerCrash);
                ++*done;
            }
            return;
        }

        std::string payload;
        while (w->busy) {
            switch (w->reader.next(&payload)) {
              case FrameReader::Status::NeedMore:
                return; // Frame still in flight.
              case FrameReader::Status::Corrupt:
                settleProtocolError(w, done, out);
                return;
              case FrameReader::Status::Frame:
                break;
            }
            Reader in(payload);
            std::uint32_t task = 0;
            EvalOutcome outcome;
            std::string programKey;
            if (!in.u32(&task) || task != w->task ||
                !readOutcome(&in, &outcome, &programKey) || !in.done()) {
                settleProtocolError(w, done, out);
                return;
            }
            // The worker's own program-cache insert died with its address
            // space; replay it against the live cache.
            if (programCache != nullptr && !programKey.empty())
                programCache->insert(programKey, outcome.result);
            (*out)[task] = std::move(outcome);
            ++*done;
            w->busy = false;
        }
        if (w->reader.pending() > 0) {
            // Bytes with no request in flight: the worker is confused.
            // Nothing to score; just replace it.
            killWorker(w);
        }
    }

    void
    settleProtocolError(Worker* w, std::size_t* done,
                        std::vector<EvalOutcome>* out) const
    {
        const std::uint32_t task = w->task;
        killWorker(w);
        (*out)[task] = failureOutcome(EvalFailure::ProtocolError);
        ++*done;
    }

    /// Precompiled before any fork: workers inherit the cleaned base and
    /// decoded base programs by process copy-on-write, so the incremental
    /// pipeline costs each worker nothing to set up.
    VariantCompiler compiler_;
    const FitnessFunction& fitness_;
    std::size_t workers_;
    std::uint32_t timeoutMs_;
    std::vector<FaultSpec> faults_;
    std::uint64_t nextSeq_ = 0;
};

} // namespace

std::unique_ptr<EvaluationBackend>
makeBackend(const ir::Module& base, const FitnessFunction& fitness,
            const EvolutionParams& params)
{
    switch (params.backend) {
      case EvalBackendKind::InProcess:
        return std::make_unique<InProcessBackend>(base, fitness,
                                                  params.threads);
      case EvalBackendKind::Isolated: {
        const std::size_t workers =
            params.threads != 0
                ? params.threads
                : std::max(1u, std::thread::hardware_concurrency());
        return std::make_unique<IsolatedBackend>(base, fitness, workers,
                                                 params.evalTimeoutMs);
      }
      case EvalBackendKind::Remote:
        return makeRemoteBackend(base, fitness, params);
    }
    GEVO_PANIC("unknown evaluation backend kind");
}

} // namespace gevo::core
