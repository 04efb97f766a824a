/// \file
/// The gevo-workerd accept loop: listen on a farm endpoint, fork one
/// WorkerSession child per accepted connection, as the isolated backend
/// forks one per worker. Forking buys two properties: a hostile
/// variant kills only its session process, and every session inherits
/// the precompiled VariantCompiler by copy-on-write with zero
/// serialization. The daemon itself never evaluates anything, so it
/// survives to accept the client's reconnect.

#ifndef GEVO_FARM_SERVER_H
#define GEVO_FARM_SERVER_H

#include <string>

#include "core/fitness.h"
#include "ir/function.h"

namespace gevo::farm {

struct ServerOptions {
    /// "host:port" or "unix:/path" (farm/endpoint.h).
    std::string listenSpec;
    /// When non-empty, this file is created (with the listen spec as its
    /// contents) once the socket is accepting — scripts poll it instead
    /// of racing the bind.
    std::string readyFile;
    /// Echoed to clients in HelloOk, e.g. "adept-v0 on P100".
    std::string banner;
};

/// Run the daemon until requestServerStop() (installed on SIGINT and
/// SIGTERM) flips. Returns the process exit code; fatal configuration
/// errors (unparseable/unbindable endpoint) exit via GEVO_FATAL.
/// \p base and \p fitness define the one workload this daemon serves;
/// its trajectory scope is hashed from them (farm/protocol.h) and
/// enforced at handshake.
int runWorkerServer(const ir::Module& base,
                    const core::FitnessFunction& fitness,
                    const ServerOptions& opts);

/// Async-signal-safe stop request (also callable from tests).
void requestServerStop();

} // namespace gevo::farm

#endif // GEVO_FARM_SERVER_H
