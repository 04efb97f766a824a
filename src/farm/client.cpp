#include "farm/client.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <deque>
#include <memory>
#include <vector>

#include <poll.h>
#include <unistd.h>

#include "farm/endpoint.h"
#include "farm/protocol.h"
#include "support/io.h"
#include "support/logging.h"
#include "support/strings.h"

namespace gevo::farm {

namespace {

using core::EvalFailure;
using core::EvalOutcome;

/// Redispatch budget per evaluation: the first strike forgives a worker
/// dying underneath an innocent request; the second writes the variant
/// off as the likely killer (matching the isolated backend's
/// one-respawn-then-penalize discipline at dispatch).
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

class RemoteBackend final : public core::EvaluationBackend {
  public:
    RemoteBackend(const ir::Module& base,
                  const core::FitnessFunction& fitness,
                  const core::EvolutionParams& params)
        : compiler_(base), fitness_(fitness),
          timeoutMs_(params.evalTimeoutMs),
          scope_(trajectoryScope(compiler_, fitness))
    {
        GEVO_ASSERT(timeoutMs_ > 0, "remote deadline needs a budget");
        // A worker vanishing mid-send must surface as a write error on
        // the socket, not a process-killing SIGPIPE.
        std::signal(SIGPIPE, SIG_IGN);
        for (const auto& part : split(params.workers, ',')) {
            const auto spec = trim(part);
            if (spec.empty())
                continue;
            Remote r;
            std::string error;
            if (!parseEndpoint(std::string(spec), &r.ep, &error))
                GEVO_FATAL("--workers: %s", error.c_str());
            remotes_.push_back(std::move(r));
        }
        if (remotes_.empty())
            GEVO_FATAL("--workers: no endpoints in '%s'",
                       params.workers.c_str());
        // Dial eagerly so a misconfigured farm (wrong workload, wrong
        // version) warns before the search invests anything; failures
        // here just start the normal backoff schedule.
        for (auto& r : remotes_)
            tryConnect(&r);
    }

    ~RemoteBackend() override
    {
        for (auto& r : remotes_)
            closeRemote(&r);
        // Failure counters are reported loudly (the run completed, but
        // an operator should know the farm misbehaved); a clean run
        // logs at info level only.
        const bool faulty =
            counters_.redispatched + counters_.disconnects +
                counters_.crcErrors + counters_.rpcTimeouts +
                counters_.handshakeRejects + counters_.localEvals >
            0;
        (faulty ? warn : inform)(
            "remote backend: %llu dispatched, %llu redispatched, "
            "%llu disconnects, %llu crc errors, %llu rpc timeouts, "
            "%llu handshake rejects, %llu reconnects, %llu local "
            "evaluations",
            counters_.dispatched, counters_.redispatched,
            counters_.disconnects, counters_.crcErrors,
            counters_.rpcTimeouts, counters_.handshakeRejects,
            counters_.reconnects, counters_.localEvals);
    }

    void
    evaluateBatch(const std::vector<const std::vector<mut::Edit>*>& batch,
                  core::VariantCache* programCache,
                  std::vector<EvalOutcome>* out) override
    {
        out->assign(batch.size(), EvalOutcome{});
        out_ = out;
        if (batch.empty())
            return;
        const std::uint64_t seqBase = nextSeq_;
        nextSeq_ += batch.size();

        tasks_.assign(batch.size(), Task{});
        for (std::size_t i = 0; i < batch.size(); ++i) {
            EvalRequest req;
            req.seq = seqBase + i;
            req.useCache = programCache != nullptr;
            req.edits = *batch[i];
            appendFrame(&tasks_[i].wire, encodeEvalRequest(req));
        }
        pending_.clear();
        for (std::size_t i = 0; i < batch.size(); ++i)
            pending_.push_back(i);
        settled_ = 0;
        seqBase_ = seqBase;
        batchSize_ = batch.size();

        heartbeat();
        while (settled_ < batchSize_) {
            tryReconnects();
            if (!anyUp() && allGone()) {
                localFallback(batch, programCache);
                break;
            }
            dispatchPending(programCache);
            pollOnce(programCache);
        }
        tasks_.clear();
        pending_.clear();
        out_ = nullptr;
    }

    std::string
    describe() const override
    {
        return strformat("remote x%zu (deadline %u ms)", remotes_.size(),
                         timeoutMs_);
    }

  private:
    // Deadlines and backoff must survive NTP steps: monotonic only.
    using Clock = std::chrono::steady_clock;
    static_assert(Clock::is_steady, "deadline clock must be monotonic");

    struct Remote {
        Endpoint ep;
        int fd = -1;
        bool up = false;       ///< Connected and handshaken.
        bool rejected = false; ///< Handshake rejected: never redial.
        bool gone = false;     ///< Permanently unusable this run.
        std::uint32_t attempts = 0; ///< Consecutive failed dials.
        Clock::time_point nextAttempt = Clock::time_point::min();
        bool everUp = false;
        FrameReader reader;
        /// Batch indices in dispatch order; front is being evaluated.
        std::deque<std::size_t> inflight;
        Clock::time_point frontDeadline{};
    };

    struct Task {
        std::string wire; ///< Pre-encoded request frame.
        std::uint8_t strikes = 0;
        EvalFailure lastStrike = EvalFailure::None;
        bool settled = false;
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
    };

    bool
    anyUp() const
    {
        return std::any_of(remotes_.begin(), remotes_.end(),
                           [](const Remote& r) { return r.up; });
    }

    bool
    allGone() const
    {
        return std::all_of(remotes_.begin(), remotes_.end(),
                           [](const Remote& r) { return r.gone; });
    }

    void
    closeRemote(Remote* r)
    {
        if (r->fd >= 0)
            ::close(r->fd);
        r->fd = -1;
        r->up = false;
        r->reader.reset();
        r->inflight.clear();
    }

    /// The deterministic penalty for an evaluation the farm could not
    /// complete (no hostnames, no timestamps: the same variant scores
    /// the same penalty on every run).
    EvalOutcome
    penaltyOutcome(EvalFailure failure) const
    {
        EvalOutcome out;
        out.failure = failure;
        switch (failure) {
          case EvalFailure::WorkerCrash:
            out.result = core::FitnessResult::fail(
                "remote evaluation connection lost");
            break;
          case EvalFailure::WorkerTimeout:
            out.result = core::FitnessResult::fail(
                strformat("remote evaluation exceeded the %u ms deadline",
                          timeoutMs_));
            break;
          case EvalFailure::ProtocolError:
            out.result = core::FitnessResult::fail(
                "remote worker protocol error");
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

    /// The transport under \p r died (EOF, reset, write failure,
    /// corrupt frame). The front request — the one being evaluated —
    /// takes the strike; everything queued behind it is redispatched
    /// unpenalized. The endpoint goes to the redial schedule.
    void
    connectionLost(Remote* r, EvalFailure frontKind)
    {
        ++counters_.disconnects;
        // Requeue back-to-front so pending_ preserves dispatch order.
        std::deque<std::size_t> inflight = std::move(r->inflight);
        closeRemote(r);
        r->attempts = 0;
        r->nextAttempt = Clock::now(); // First redial is immediate.
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
        for (auto& r : remotes_) {
            if (!r.up || !r.inflight.empty())
                continue;
            if (!writeFrame(r.fd, encodePing(nextSeq_)))
                connectionLost(&r, EvalFailure::WorkerCrash);
        }
    }

    void
    tryConnect(Remote* r)
    {
        std::string error;
        const int fd = connectEndpoint(r->ep, kConnectTimeoutMs, &error);
        if (fd < 0) {
            ++r->attempts;
            r->nextAttempt = Clock::now() + backoffAfter(r->attempts);
            return;
        }
        HelloMsg hello;
        hello.scope = scope_;
        hello.timeoutMs = timeoutMs_;
        if (!writeFrame(fd, encodeHello(hello))) {
            ::close(fd);
            ++r->attempts;
            r->nextAttempt = Clock::now() + backoffAfter(r->attempts);
            return;
        }
        // Await the HelloOk/HelloReject verdict within a hard budget.
        FrameReader reader;
        std::string payload;
        const auto deadline =
            Clock::now() + std::chrono::milliseconds(kHandshakeTimeoutMs);
        for (;;) {
            const auto st = reader.next(&payload);
            if (st == FrameReader::Status::Frame)
                break;
            if (st == FrameReader::Status::Corrupt || Clock::now() >= deadline) {
                ::close(fd);
                ++r->attempts;
                r->nextAttempt = Clock::now() + backoffAfter(r->attempts);
                return;
            }
            pollfd pfd{fd, POLLIN, 0};
            const auto left =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - Clock::now());
            const int rc =
                ::poll(&pfd, 1,
                       static_cast<int>(std::max<long long>(left.count(), 0)));
            if (rc < 0 && errno == EINTR)
                continue;
            if (rc <= 0 || reader.fill(fd) <= 0) {
                ::close(fd);
                ++r->attempts;
                r->nextAttempt = Clock::now() + backoffAfter(r->attempts);
                return;
            }
        }
        std::string text;
        if (decodeHelloOk(payload, &text)) {
            r->fd = fd;
            r->up = true;
            r->attempts = 0;
            if (r->everUp)
                ++counters_.reconnects;
            r->everUp = true;
            return;
        }
        ::close(fd);
        if (decodeHelloReject(payload, &text)) {
            // Wrong trajectory scope or protocol version: this daemon
            // can never serve this search. Same verdict a mismatched
            // checkpoint gets — refuse, loudly.
            warn("remote worker %s rejected the handshake (%s); "
                 "abandoning it for this run",
                 r->ep.spec.c_str(), text.c_str());
            ++counters_.handshakeRejects;
            r->rejected = true;
            r->gone = true;
            return;
        }
        ++r->attempts;
        r->nextAttempt = Clock::now() + backoffAfter(r->attempts);
    }

    void
    tryReconnects()
    {
        const auto now = Clock::now();
        for (auto& r : remotes_) {
            if (r.up || r.gone)
                continue;
            if (r.attempts >= kMaxConnectAttempts) {
                warn("remote worker %s unreachable after %u dial "
                     "attempts; abandoning it for this run",
                     r.ep.spec.c_str(), r.attempts);
                r.gone = true;
                continue;
            }
            if (now >= r.nextAttempt)
                tryConnect(&r);
        }
    }

    void
    dispatchPending(core::VariantCache* programCache)
    {
        while (!pending_.empty()) {
            Remote* target = nullptr;
            for (std::size_t k = 0; k < remotes_.size(); ++k) {
                Remote& r = remotes_[(rrCursor_ + k) % remotes_.size()];
                if (r.up && r.inflight.size() < kPipelineDepth) {
                    target = &r;
                    rrCursor_ = (rrCursor_ + k + 1) % remotes_.size();
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
                sendFailed(target, programCache);
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
    armFrontDeadline(Remote* r)
    {
        r->frontDeadline =
            Clock::now() + std::chrono::milliseconds(timeoutMs_);
    }

    void
    pollOnce(core::VariantCache* programCache)
    {
        std::vector<pollfd> fds;
        std::vector<std::size_t> owner;
        auto wake = Clock::time_point::max();
        for (std::size_t i = 0; i < remotes_.size(); ++i) {
            Remote& r = remotes_[i];
            if (r.up) {
                fds.push_back({r.fd, POLLIN, 0});
                owner.push_back(i);
                if (!r.inflight.empty())
                    wake = std::min(wake, r.frontDeadline);
            } else if (!r.gone) {
                wake = std::min(wake, r.nextAttempt);
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
            GEVO_PANIC("remote backend: poll failed: %s",
                       std::strerror(errno));
        if (rc > 0) {
            for (std::size_t k = 0; k < fds.size(); ++k) {
                if (fds[k].revents & (POLLIN | POLLHUP | POLLERR))
                    drainRemote(&remotes_[owner[k]], programCache);
            }
        }
        // Deadline pass: a silent front past its budget means the worker
        // is wedged (or the link is black-holing) — drop the connection,
        // strike the front as an RPC timeout, redispatch the rest.
        const auto after = Clock::now();
        for (auto& r : remotes_) {
            if (r.up && !r.inflight.empty() && after >= r.frontDeadline)
                connectionLost(&r, EvalFailure::WorkerTimeout);
        }
    }

    void
    drainRemote(Remote* r, core::VariantCache* programCache)
    {
        const ssize_t n = r->reader.fill(r->fd);
        if (n < 0 && errno == EAGAIN)
            return;
        if (n <= 0) {
            connectionLost(r, EvalFailure::WorkerCrash);
            return;
        }
        consumeFrames(r, programCache);
    }

    /// A send to \p r failed: its worker hung up. Whatever it wrote
    /// before that — replies, or the bytes that corrupted its stream — is
    /// still queued on our side. Read it first, so the front settles as
    /// what the worker actually did (a garbage reply is a protocol error,
    /// not a crash), then account the loss unless a corrupt stream
    /// already has. Only bytes readable now are consumed: a hung-up
    /// peer's are all queued, and the send loop never blocks here.
    void
    sendFailed(Remote* r, core::VariantCache* programCache)
    {
        pollfd pfd{r->fd, POLLIN, 0};
        while (r->up && ::poll(&pfd, 1, 0) > 0 && r->reader.fill(r->fd) > 0)
            consumeFrames(r, programCache);
        if (r->up)
            connectionLost(r, EvalFailure::WorkerCrash);
    }

    /// Handle every complete frame buffered for \p r; a corrupt or
    /// unexpected one tears the connection down.
    void
    consumeFrames(Remote* r, core::VariantCache* programCache)
    {
        std::string payload;
        for (;;) {
            switch (r->reader.next(&payload)) {
              case FrameReader::Status::Frame:
                if (!handleFrame(r, payload, programCache))
                    return; // Connection already torn down.
                continue;
              case FrameReader::Status::Corrupt:
                ++counters_.crcErrors;
                connectionLost(r, EvalFailure::ProtocolError);
                return;
              case FrameReader::Status::NeedMore:
                return;
            }
        }
    }

    bool
    handleFrame(Remote* r, const std::string& payload,
                core::VariantCache* programCache)
    {
        switch (payloadType(payload)) {
          case MsgType::Pong:
            return true;
          case MsgType::EvalResult: {
            EvalReply reply;
            if (!decodeEvalReply(payload, &reply))
                break;
            if (reply.seq < seqBase_ || reply.seq - seqBase_ >= batchSize_)
                break;
            const std::size_t task =
                static_cast<std::size_t>(reply.seq - seqBase_);
            const auto it = std::find(r->inflight.begin(),
                                      r->inflight.end(), task);
            if (it == r->inflight.end())
                break; // A result we never asked this worker for.
            const bool wasFront = it == r->inflight.begin();
            r->inflight.erase(it);
            if (wasFront && !r->inflight.empty())
                armFrontDeadline(r);
            // Commit strictly by batch index; arrival order is noise.
            (*out_)[task] = reply.outcome;
            tasks_[task].settled = true;
            ++settled_;
            // The worker's program-cache insert lives in its process;
            // replay it into ours (exactly the isolated backend's
            // parent-side replay).
            if (programCache != nullptr && !reply.programKey.empty())
                programCache->insert(reply.programKey,
                                     reply.outcome.result);
            return true;
          }
          default:
            break;
        }
        ++counters_.crcErrors;
        connectionLost(r, EvalFailure::ProtocolError);
        return false;
    }

    /// Every worker is gone: finish the batch in-process rather than
    /// abandoning the search. Tasks that already burned a strike are
    /// settled with their recorded penalty instead of being evaluated
    /// here — a variant that plausibly killed a worker must not get a
    /// shot at the engine's own address space.
    void
    localFallback(const std::vector<const std::vector<mut::Edit>*>& batch,
                  core::VariantCache* programCache)
    {
        if (!warnedFallback_) {
            warn("remote backend: every worker is gone; continuing with "
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
                                                   *batch[task],
                                                   programCache, nullptr);
            }
            t.settled = true;
            ++settled_;
        }
    }

    core::VariantCompiler compiler_; ///< Local fallback + scope hash.
    const core::FitnessFunction& fitness_;
    std::uint32_t timeoutMs_;
    std::uint64_t scope_;
    std::vector<Remote> remotes_;
    std::size_t rrCursor_ = 0;
    std::uint64_t nextSeq_ = 0;

    // Per-batch state (evaluateBatch is single-threaded by contract).
    std::vector<Task> tasks_;
    std::deque<std::size_t> pending_;
    std::size_t settled_ = 0;
    std::uint64_t seqBase_ = 0;
    std::size_t batchSize_ = 0;
    /// The current batch's output vector (valid within evaluateBatch).
    std::vector<EvalOutcome>* out_ = nullptr;

    Counters counters_;
    bool warnedFallback_ = false;
};

} // namespace

} // namespace gevo::farm

namespace gevo::core {

std::unique_ptr<EvaluationBackend>
makeRemoteBackend(const ir::Module& base, const FitnessFunction& fitness,
                  const EvolutionParams& params)
{
    return std::make_unique<farm::RemoteBackend>(base, fitness, params);
}

} // namespace gevo::core
