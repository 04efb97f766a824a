/// \file
/// One farm worker connection: handshake, then serve Eval requests until
/// the peer goes away. Always runs in a forked child, so a crashing or
/// hanging variant takes down only the session. Two places fork them:
/// the workerd accept loop (farm/server.h), one per accepted connection,
/// and the isolated backend (farm/client.h), which forks up to one per
/// worker over socketpairs and keeps them for the whole search, sending
/// Sync frames so that each session's program cache learns what the
/// parent's gained. Either way a session lives as long as its
/// connection, and the dispatcher on the other end strikes the
/// evaluation a lost session took down and redispatches it to a fresh
/// one.

#ifndef GEVO_FARM_SESSION_H
#define GEVO_FARM_SESSION_H

#include <cstdint>
#include <string>

#include "core/fault_inject.h"
#include "core/fitness.h"
#include "core/variant_cache.h"
#include "farm/protocol.h"

namespace gevo::farm {

class WorkerSession {
  public:
    /// \p compiler, \p fitness and \p cache must outlive the session.
    /// \p cache serves repeat programs and learns fresh ones, from its
    /// own simulations and from Sync frames: workerd passes a
    /// session-local cache, the isolated backend the search's own cache
    /// as its fork inherited it. Entries are values of the
    /// deterministic fitness function, so hits and misses score
    /// identically. \p scope is the daemon's trajectory-scope fingerprint
    /// (protocol.h); a Hello carrying any other scope is rejected.
    /// \p banner is echoed in HelloOk for client-side logs.
    WorkerSession(const core::VariantCompiler& compiler,
                  const core::FitnessFunction& fitness,
                  core::VariantCache* cache, std::uint64_t scope,
                  std::string banner);

    /// Serve one connection until EOF, error, or corruption. Never
    /// throws and never exits the process on peer misbehavior (a peer
    /// closing mid-frame just ends the session); an injected crash/hang
    /// fault or a hostile variant may well kill the process — that is
    /// the failure mode the client's redispatch exists to absorb.
    void serve(int fd);

    std::size_t served() const { return served_; }

  private:
    bool handshake(int fd, FrameReader* reader);
    /// False ends the session (peer gone / corrupt stream).
    bool handleEval(int fd, const std::string& payload);

    const core::VariantCompiler& compiler_;
    const core::FitnessFunction& fitness_;
    std::uint64_t scope_;
    std::string banner_;
    std::vector<core::FaultSpec> faults_;
    core::VariantCache* cache_;
    std::uint32_t clientTimeoutMs_ = 0;
    std::size_t served_ = 0;
};

} // namespace gevo::farm

#endif // GEVO_FARM_SESSION_H
