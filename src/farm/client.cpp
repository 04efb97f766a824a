#include "farm/client.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <thread>
#include <unordered_set>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "farm/endpoint.h"
#include "farm/protocol.h"
#include "farm/session.h"
#include "support/io.h"
#include "support/logging.h"
#include "support/strings.h"

namespace gevo::farm {

namespace {

using core::EvalFailure;
using core::EvalOutcome;

/// Redispatch budget per evaluation: the first strike forgives a worker
/// dying underneath an innocent request; the second writes the variant
/// off as the likely killer. Injected faults are keyed on the sequence
/// number, which a redispatch keeps, so each one settles as exactly one
/// penalty.
constexpr std::uint8_t kStrikes = 2;
/// Requests pipelined per connection: one being evaluated, one queued
/// behind it so the worker never idles between evaluations.
constexpr std::size_t kPipelineDepth = 2;
/// Consecutive failed dials before a worker is declared gone for the
/// rest of the run.
constexpr std::uint32_t kMaxConnectAttempts = 6;
constexpr int kConnectTimeoutMs = 1000;
constexpr int kHandshakeTimeoutMs = 5000;

std::chrono::milliseconds
backoffAfter(std::uint32_t attempts)
{
    const std::uint32_t shift = std::min(attempts, 6u);
    return std::chrono::milliseconds(
        std::min<std::uint64_t>(100ull << shift, 5000));
}

class FarmBackend final : public core::EvaluationBackend {
  public:
    FarmBackend(const ir::Module& base, const core::FitnessFunction& fitness,
                const core::EvolutionParams& params)
        : compiler_(base), fitness_(fitness),
          timeoutMs_(params.evalTimeoutMs),
          scope_(core::scopeFingerprint(compiler_.compile({}), fitness))
    {
        GEVO_ASSERT(timeoutMs_ > 0, "evaluation deadline needs a budget");
        // A worker vanishing mid-send must surface as a write error on
        // the socket, not a process-killing SIGPIPE.
        std::signal(SIGPIPE, SIG_IGN);
        if (params.backend == core::EvalBackendKind::Isolated) {
            forkWorkers_ = params.threads != 0
                               ? params.threads
                               : std::max(1u,
                                          std::thread::hardware_concurrency());
            // The forked sessions read the fault schedule too; a malformed
            // one must end the search here, not kill a session.
            core::parseFaultSpecs();
            return;
        }
        for (const auto& part : split(params.workers, ',')) {
            const auto spec = trim(part);
            if (spec.empty())
                continue;
            Link l;
            std::string error;
            if (!parseEndpoint(std::string(spec), &l.ep, &error))
                GEVO_FATAL("--workers: %s", error.c_str());
            links_.push_back(std::move(l));
        }
        if (links_.empty())
            GEVO_FATAL("--workers: no endpoints in '%s'",
                       params.workers.c_str());
        // Dial eagerly so a misconfigured farm (wrong workload, wrong
        // version) warns before the search invests anything; failures
        // here just start the normal backoff schedule.
        for (auto& l : links_)
            tryConnect(&l);
    }

    FarmBackend(const FarmBackend&) = delete;
    FarmBackend& operator=(const FarmBackend&) = delete;

    ~FarmBackend() override
    {
        for (auto& l : links_)
            closeLink(&l);
        // Failure counters are reported loudly (the run completed, but
        // an operator should know the workers misbehaved); a clean run
        // logs at info level only.
        const bool faulty =
            counters_.redispatched + counters_.disconnects +
                counters_.crcErrors + counters_.rpcTimeouts +
                counters_.handshakeRejects + counters_.localEvals >
            0;
        const std::string forked =
            forkWorkers_ != 0
                ? strformat(", %llu sessions forked", counters_.forked)
                : std::string();
        (faulty ? warn : inform)(
            "%s backend: %llu dispatched, %llu redispatched, "
            "%llu disconnects, %llu crc errors, %llu rpc timeouts, "
            "%llu handshake rejects, %llu reconnects, %llu local "
            "evaluations%s",
            forkWorkers_ != 0 ? "isolated" : "remote",
            counters_.dispatched, counters_.redispatched,
            counters_.disconnects, counters_.crcErrors,
            counters_.rpcTimeouts, counters_.handshakeRejects,
            counters_.reconnects, counters_.localEvals, forked.c_str());
    }

    void
    evaluateBatch(const std::vector<const std::vector<mut::Edit>*>& batch,
                  core::VariantCache* programCache,
                  std::vector<EvalOutcome>* out) override
    {
        out->assign(batch.size(), EvalOutcome{});
        if (batch.empty())
            return;
        out_ = out;
        cache_ = programCache;
        seqBase_ = nextSeq_;
        nextSeq_ += batch.size();

        tasks_.assign(batch.size(), Task{});
        for (std::size_t i = 0; i < batch.size(); ++i) {
            EvalRequest req;
            req.seq = seqBase_ + i;
            req.useCache = programCache != nullptr;
            req.edits = *batch[i];
            appendFrame(&tasks_[i].wire, encodeEvalRequest(req));
            pending_.push_back(i);
        }
        settled_ = 0;
        replayed_ = 0;

        if (forkWorkers_ != 0)
            startSessions(batch.size());
        else
            heartbeat();
        while (settled_ < batch.size()) {
            tryReconnects();
            if (!anyUp() && allGone()) {
                localFallback(batch);
                break;
            }
            dispatchPending();
            pollOnce();
            replaySettled();
        }
        replaySettled();
        tasks_.clear();
        pending_.clear();
        out_ = nullptr;
        cache_ = nullptr;
    }

  private:
    // Deadlines and backoff must survive NTP steps: monotonic only.
    using Clock = std::chrono::steady_clock;
    static_assert(Clock::is_steady, "deadline clock must be monotonic");

    /// One connection to a worker session: a dialed workerd daemon, or a
    /// session this process forked.
    struct Link {
        Endpoint ep;      ///< Remote only.
        pid_t pid = -1;   ///< The forked session, isolated only.
        int fd = -1;
        bool up = false;   ///< Connected and handshaken.
        bool gone = false; ///< Permanently unusable this run.
        std::uint32_t attempts = 0; ///< Consecutive failed dials.
        Clock::time_point nextAttempt = Clock::time_point::min();
        bool everUp = false;
        FrameReader reader;
        /// Batch indices in dispatch order; front is being evaluated.
        std::deque<std::size_t> inflight;
        Clock::time_point frontDeadline{};
        /// Isolated only: the parent-cache insertion stamp this session's
        /// cache is in step with, and the program keys it simulated
        /// (so holds already) since then.
        std::uint64_t cursor = 0;
        std::unordered_set<std::string> produced;
    };

    struct Task {
        std::string wire; ///< Pre-encoded request frame.
        std::uint8_t strikes = 0;
        EvalFailure lastStrike = EvalFailure::None;
        bool settled = false;
        /// The program key the answering session looked up or inserted.
        std::string programKey;
    };

    struct Counters {
        unsigned long long dispatched = 0;
        unsigned long long redispatched = 0;
        unsigned long long disconnects = 0;
        unsigned long long crcErrors = 0;
        unsigned long long rpcTimeouts = 0;
        unsigned long long handshakeRejects = 0;
        unsigned long long reconnects = 0;
        unsigned long long localEvals = 0;
        unsigned long long forked = 0;
    };

    bool
    anyUp() const
    {
        return std::any_of(links_.begin(), links_.end(),
                           [](const Link& l) { return l.up; });
    }

    bool
    allGone() const
    {
        return std::all_of(links_.begin(), links_.end(),
                           [](const Link& l) { return l.gone; });
    }

    /// Close \p l's socket. A forked session is killed and reaped with
    /// it: one past its deadline would otherwise run on until its own
    /// alarm, and none may outlive the backend.
    void
    closeLink(Link* l)
    {
        if (l->fd >= 0)
            ::close(l->fd);
        l->fd = -1;
        if (l->pid > 0) {
            ::kill(l->pid, SIGKILL);
            while (::waitpid(l->pid, nullptr, 0) < 0 && errno == EINTR) {
            }
            l->pid = -1;
        }
        l->up = false;
        l->reader.reset();
        l->inflight.clear();
    }

    /// The deterministic penalty for an evaluation no worker completed
    /// (no hostnames, pids or timestamps: the same variant scores the
    /// same penalty on every run and every backend).
    EvalOutcome
    penaltyOutcome(EvalFailure failure) const
    {
        EvalOutcome out;
        out.failure = failure;
        switch (failure) {
          case EvalFailure::WorkerCrash:
            out.result =
                core::FitnessResult::fail("evaluation worker lost");
            break;
          case EvalFailure::WorkerTimeout:
            out.result = core::FitnessResult::fail(strformat(
                "evaluation exceeded the %u ms deadline", timeoutMs_));
            break;
          case EvalFailure::ProtocolError:
            out.result = core::FitnessResult::fail(
                "evaluation worker protocol error");
            break;
          case EvalFailure::None:
            GEVO_PANIC("penaltyOutcome(None)");
        }
        return out;
    }

    /// Record a strike against \p task. The second strike settles it as
    /// a penalty; before that it goes back to the head of the pending
    /// queue for redispatch to another worker.
    void
    strike(std::size_t task, EvalFailure kind)
    {
        Task& t = tasks_[task];
        ++t.strikes;
        t.lastStrike = kind;
        if (kind == EvalFailure::WorkerTimeout)
            ++counters_.rpcTimeouts;
        if (t.strikes >= kStrikes) {
            (*out_)[task] = penaltyOutcome(kind);
            t.settled = true;
            ++settled_;
        } else {
            ++counters_.redispatched;
            pending_.push_front(task);
        }
    }

    /// The transport under \p l died (EOF, reset, write failure,
    /// corrupt frame, blown deadline). The front request — the one being
    /// evaluated — takes the strike; everything queued behind it is
    /// redispatched unpenalized. The link goes to the redial schedule.
    void
    connectionLost(Link* l, EvalFailure frontKind)
    {
        ++counters_.disconnects;
        // Requeue back-to-front so pending_ preserves dispatch order.
        std::deque<std::size_t> inflight = std::move(l->inflight);
        closeLink(l);
        l->attempts = 0;
        l->nextAttempt = Clock::now(); // First redial is immediate.
        while (inflight.size() > 1) {
            pending_.push_front(inflight.back());
            inflight.pop_back();
        }
        if (!inflight.empty())
            strike(inflight.front(), frontKind);
    }

    void
    heartbeat()
    {
        // Probe idle connections at batch start so a worker that died
        // between generations is redialed before any request is risked
        // on its half-open socket. Pongs are drained during polling.
        for (auto& l : links_) {
            if (!l.up || !l.inflight.empty())
                continue;
            if (!writeFrame(l.fd, encodePing(nextSeq_)))
                connectionLost(&l, EvalFailure::WorkerCrash);
        }
    }

    /// Batch start, isolated: fork the sessions a batch of \p batchSize
    /// can use that do not exist yet, and sync the live ones. Sessions
    /// hold a copy of one program cache (or none); a batch that brings
    /// another retires them all first.
    void
    startSessions(std::size_t batchSize)
    {
        if (cache_ != sessionCache_) {
            for (auto& l : links_)
                closeLink(&l);
            links_.clear();
            sessionCache_ = cache_;
        }
        for (auto& l : links_) {
            if (l.up && !syncSession(&l))
                connectionLost(&l, EvalFailure::WorkerCrash);
        }
        while (links_.size() < std::min(forkWorkers_, batchSize)) {
            links_.emplace_back();
            tryConnect(&links_.back());
        }
    }

    /// Bring \p l's session cache in step with the parent's: send, in
    /// insertion order, the entries added since its cursor that it did
    /// not simulate itself. False when the session hung up, or dropped a
    /// frame too large to decode; either way its re-fork inherits the
    /// whole cache.
    bool
    syncSession(Link* l)
    {
        if (cache_ == nullptr || l->cursor == cache_->insertions())
            return true;
        std::vector<ProgramEntry> entries;
        const std::uint64_t now = cache_->insertions();
        for (auto& entry : cache_->insertedSince(l->cursor)) {
            if (l->produced.count(entry.first) == 0)
                entries.push_back(std::move(entry));
        }
        l->cursor = now;
        l->produced.clear();
        return entries.empty() || writeFrame(l->fd, encodeSync(entries));
    }

    /// Replay into the parent's cache, in batch order, the program-cache
    /// lookup or insert of every task settled so far without a gap. A
    /// session forked later in the batch inherits them, so at one worker
    /// the cache evolves exactly as in process, faults or not. A hit the
    /// parent no longer holds (a bounded cache can evict what a session
    /// kept) is learned too.
    void
    replaySettled()
    {
        for (; replayed_ < tasks_.size() && tasks_[replayed_].settled;
             ++replayed_) {
            const std::string& key = tasks_[replayed_].programKey;
            if (cache_ == nullptr || key.empty())
                continue;
            const EvalOutcome& outcome = (*out_)[replayed_];
            core::FitnessResult cached;
            if (outcome.simulated || !cache_->lookup(key, &cached))
                cache_->insert(key, outcome.result);
        }
    }

    /// Fork a WorkerSession on one end of a fresh socketpair and return
    /// the other end. The child inherits the compiler, the fitness
    /// function and the parent's program cache by copy-on-write, so its
    /// cursor starts at the cache's current insertion stamp.
    int
    forkSession(Link* l)
    {
        int sv[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0)
            GEVO_FATAL("isolated backend: socketpair failed: %s",
                       std::strerror(errno));
        const pid_t pid = ::fork();
        if (pid < 0)
            GEVO_FATAL("isolated backend: fork failed: %s",
                       std::strerror(errno));
        if (pid == 0) {
            // A sibling holding another session's socket open would mask
            // that session's EOF from the parent when it crashes.
            ::close(sv[0]);
            for (const auto& other : links_) {
                if (other.fd >= 0)
                    ::close(other.fd);
            }
            WorkerSession session(compiler_, fitness_, cache_, scope_,
                                  "isolated session");
            session.serve(sv[1]);
            std::_Exit(0);
        }
        ::close(sv[1]);
        ++counters_.forked;
        l->pid = pid;
        l->cursor = cache_ != nullptr ? cache_->insertions() : 0;
        l->produced.clear();
        return sv[0];
    }

    /// Send Hello on \p fd and await the worker's verdict frame within a
    /// hard budget.
    bool
    awaitVerdict(int fd, std::string* payload) const
    {
        HelloMsg hello;
        hello.scope = scope_;
        hello.timeoutMs = timeoutMs_;
        if (!writeFrame(fd, encodeHello(hello)))
            return false;
        FrameReader reader;
        const auto deadline =
            Clock::now() + std::chrono::milliseconds(kHandshakeTimeoutMs);
        for (;;) {
            const auto st = reader.next(payload);
            if (st == FrameReader::Status::Frame)
                return true;
            if (st == FrameReader::Status::Corrupt || Clock::now() >= deadline)
                return false;
            pollfd pfd{fd, POLLIN, 0};
            const auto left =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - Clock::now());
            const int rc =
                ::poll(&pfd, 1,
                       static_cast<int>(std::max<long long>(left.count(), 0)));
            if (rc < 0 && errno == EINTR)
                continue;
            if (rc <= 0 || reader.fill(fd) <= 0)
                return false;
        }
    }

    void
    tryConnect(Link* l)
    {
        std::string error;
        l->fd = forkWorkers_ != 0
                    ? forkSession(l)
                    : connectEndpoint(l->ep, kConnectTimeoutMs, &error);
        std::string payload;
        std::string text;
        if (l->fd >= 0 && awaitVerdict(l->fd, &payload)) {
            if (decodeHelloOk(payload, &text)) {
                l->up = true;
                l->attempts = 0;
                if (l->everUp)
                    ++counters_.reconnects;
                l->everUp = true;
                return;
            }
            if (decodeHelloReject(payload, &text)) {
                // Wrong trajectory scope or protocol version: this
                // daemon can never serve this search. Same verdict a
                // mismatched checkpoint gets — refuse, loudly.
                closeLink(l);
                warn("remote worker %s rejected the handshake (%s); "
                     "abandoning it for this run",
                     l->ep.spec.c_str(), text.c_str());
                ++counters_.handshakeRejects;
                l->gone = true;
                return;
            }
        }
        closeLink(l);
        ++l->attempts;
        l->nextAttempt = Clock::now() + backoffAfter(l->attempts);
    }

    void
    tryReconnects()
    {
        const auto now = Clock::now();
        for (auto& l : links_) {
            if (l.up || l.gone)
                continue;
            if (l.attempts >= kMaxConnectAttempts) {
                warn("evaluation worker %s unreachable after %u dial "
                     "attempts; abandoning it for this run",
                     l.ep.spec.c_str(), l.attempts);
                l.gone = true;
                continue;
            }
            if (now >= l.nextAttempt)
                tryConnect(&l);
        }
    }

    void
    dispatchPending()
    {
        while (!pending_.empty()) {
            Link* target = nullptr;
            for (std::size_t k = 0; k < links_.size(); ++k) {
                Link& l = links_[(rrCursor_ + k) % links_.size()];
                if (l.up && l.inflight.size() < kPipelineDepth) {
                    target = &l;
                    rrCursor_ = (rrCursor_ + k + 1) % links_.size();
                    break;
                }
            }
            if (target == nullptr)
                return;
            const std::size_t task = pending_.front();
            const std::string& wire = tasks_[task].wire;
            if (!writeAll(target->fd, wire.data(), wire.size())) {
                // The worker hung up. This task was never in flight there
                // and is retried on the next loop.
                sendFailed(target);
                continue;
            }
            pending_.pop_front();
            target->inflight.push_back(task);
            ++counters_.dispatched;
            if (target->inflight.size() == 1)
                armFrontDeadline(target);
        }
    }

    void
    armFrontDeadline(Link* l)
    {
        l->frontDeadline =
            Clock::now() + std::chrono::milliseconds(timeoutMs_);
    }

    void
    pollOnce()
    {
        std::vector<pollfd> fds;
        std::vector<std::size_t> owner;
        auto wake = Clock::time_point::max();
        for (std::size_t i = 0; i < links_.size(); ++i) {
            Link& l = links_[i];
            if (l.up) {
                fds.push_back({l.fd, POLLIN, 0});
                owner.push_back(i);
                if (!l.inflight.empty())
                    wake = std::min(wake, l.frontDeadline);
            } else if (!l.gone) {
                wake = std::min(wake, l.nextAttempt);
            }
        }
        const auto now = Clock::now();
        int timeout = 50; // Idle fallback: re-examine soon.
        if (wake != Clock::time_point::max()) {
            const auto left =
                std::chrono::duration_cast<std::chrono::milliseconds>(wake -
                                                                      now);
            timeout = static_cast<int>(
                std::clamp<long long>(left.count() + 1, 0, 1000));
        }
        const int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                              timeout);
        if (rc < 0 && errno != EINTR)
            GEVO_PANIC("farm dispatcher: poll failed: %s",
                       std::strerror(errno));
        if (rc > 0) {
            for (std::size_t k = 0; k < fds.size(); ++k) {
                if (fds[k].revents & (POLLIN | POLLHUP | POLLERR))
                    drainLink(&links_[owner[k]]);
            }
        }
        // Deadline pass: a silent front past its budget means the worker
        // is wedged (or the link is black-holing) — drop the connection,
        // strike the front as a timeout, redispatch the rest.
        const auto after = Clock::now();
        for (auto& l : links_) {
            if (l.up && !l.inflight.empty() && after >= l.frontDeadline)
                connectionLost(&l, EvalFailure::WorkerTimeout);
        }
    }

    void
    drainLink(Link* l)
    {
        const ssize_t n = l->reader.fill(l->fd);
        if (n < 0 && errno == EAGAIN)
            return;
        if (n <= 0) {
            connectionLost(l, EvalFailure::WorkerCrash);
            return;
        }
        consumeFrames(l);
    }

    /// A send to \p l failed: its worker hung up. Whatever it wrote
    /// before that — replies, or the bytes that corrupted its stream — is
    /// still queued on our side. Read it first, so the front settles as
    /// what the worker actually did (a garbage reply is a protocol error,
    /// not a crash), then account the loss unless a corrupt stream
    /// already has. Only bytes readable now are consumed: a hung-up
    /// peer's are all queued, and the send loop never blocks here.
    void
    sendFailed(Link* l)
    {
        pollfd pfd{l->fd, POLLIN, 0};
        while (l->up && ::poll(&pfd, 1, 0) > 0 && l->reader.fill(l->fd) > 0)
            consumeFrames(l);
        if (l->up)
            connectionLost(l, EvalFailure::WorkerCrash);
    }

    /// Handle every complete frame buffered for \p l; a corrupt or
    /// unexpected one tears the connection down.
    void
    consumeFrames(Link* l)
    {
        std::string payload;
        for (;;) {
            switch (l->reader.next(&payload)) {
              case FrameReader::Status::Frame:
                if (!handleFrame(l, payload))
                    return; // Connection already torn down.
                continue;
              case FrameReader::Status::Corrupt:
                ++counters_.crcErrors;
                connectionLost(l, EvalFailure::ProtocolError);
                return;
              case FrameReader::Status::NeedMore:
                return;
            }
        }
    }

    bool
    handleFrame(Link* l, const std::string& payload)
    {
        switch (payloadType(payload)) {
          case MsgType::Pong:
            return true;
          case MsgType::EvalResult: {
            EvalReply reply;
            if (!decodeEvalReply(payload, &reply))
                break;
            if (reply.seq < seqBase_ || reply.seq - seqBase_ >= tasks_.size())
                break;
            const std::size_t task =
                static_cast<std::size_t>(reply.seq - seqBase_);
            const auto it = std::find(l->inflight.begin(),
                                      l->inflight.end(), task);
            if (it == l->inflight.end())
                break; // A result we never asked this worker for.
            const bool wasFront = it == l->inflight.begin();
            l->inflight.erase(it);
            if (wasFront && !l->inflight.empty())
                armFrontDeadline(l);
            // Commit strictly by batch index; arrival order is noise. The
            // session's cache traffic is replayed into ours in batch
            // order (replaySettled).
            (*out_)[task] = reply.outcome;
            tasks_[task].settled = true;
            tasks_[task].programKey = std::move(reply.programKey);
            ++settled_;
            if (forkWorkers_ != 0 && reply.outcome.simulated)
                l->produced.insert(tasks_[task].programKey);
            return true;
          }
          default:
            break;
        }
        ++counters_.crcErrors;
        connectionLost(l, EvalFailure::ProtocolError);
        return false;
    }

    /// Every worker is gone: finish the batch in-process rather than
    /// abandoning the search. Tasks that already burned a strike are
    /// settled with their recorded penalty instead of being evaluated
    /// here — a variant that plausibly killed a worker must not get a
    /// shot at the engine's own address space.
    void
    localFallback(const std::vector<const std::vector<mut::Edit>*>& batch)
    {
        if (!warnedFallback_) {
            warn("farm dispatcher: every worker is gone; continuing with "
                 "local in-process evaluation");
            warnedFallback_ = true;
        }
        while (!pending_.empty()) {
            const std::size_t task = pending_.front();
            pending_.pop_front();
            Task& t = tasks_[task];
            if (t.settled)
                continue;
            if (t.strikes > 0) {
                (*out_)[task] = penaltyOutcome(t.lastStrike);
            } else {
                ++counters_.localEvals;
                (*out_)[task] = core::evaluateTask(compiler_, fitness_,
                                                   *batch[task], cache_,
                                                   nullptr);
            }
            t.settled = true;
            ++settled_;
        }
    }

    /// Precompiled before any fork: forked sessions inherit the cleaned
    /// base and decoded base programs by copy-on-write. Also the local
    /// fallback's compiler and the scope hash's input.
    core::VariantCompiler compiler_;
    const core::FitnessFunction& fitness_;
    std::uint32_t timeoutMs_;
    std::uint64_t scope_;
    /// Most sessions to fork (isolated); 0 = dial params.workers.
    std::size_t forkWorkers_ = 0;
    /// The program cache the forked sessions hold a copy of.
    core::VariantCache* sessionCache_ = nullptr;
    std::vector<Link> links_;
    std::size_t rrCursor_ = 0;
    std::uint64_t nextSeq_ = 0;

    // Per-batch state (evaluateBatch is single-threaded by contract).
    std::vector<Task> tasks_;
    std::deque<std::size_t> pending_;
    std::size_t settled_ = 0;
    /// Tasks whose cache traffic is replayed: a prefix of the batch.
    std::size_t replayed_ = 0;
    std::uint64_t seqBase_ = 0;
    /// The current batch's output vector and program cache (valid within
    /// evaluateBatch).
    std::vector<EvalOutcome>* out_ = nullptr;
    core::VariantCache* cache_ = nullptr;

    Counters counters_;
    bool warnedFallback_ = false;
};

} // namespace

} // namespace gevo::farm

namespace gevo::core {

std::unique_ptr<EvaluationBackend>
makeFarmBackend(const ir::Module& base, const FitnessFunction& fitness,
                const EvolutionParams& params)
{
    return std::make_unique<farm::FarmBackend>(base, fitness, params);
}

} // namespace gevo::core
