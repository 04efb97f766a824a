#include "farm/server.h"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <vector>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "farm/endpoint.h"
#include "farm/protocol.h"
#include "farm/session.h"
#include "support/logging.h"

namespace gevo::farm {

namespace {

volatile std::sig_atomic_t gStop = 0;

void
onStopSignal(int)
{
    gStop = 1;
}

/// Install \p handler without SA_RESTART so a signal interrupts a
/// blocking accept() with EINTR and the loop can observe the flag.
void
installHandler(int sig, void (*handler)(int))
{
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = handler;
    ::sigemptyset(&sa.sa_mask);
    ::sigaction(sig, &sa, nullptr);
}

void
reapSessions(std::vector<pid_t>* children, bool block)
{
    for (auto it = children->begin(); it != children->end();) {
        int status = 0;
        const pid_t r = ::waitpid(*it, &status, block ? 0 : WNOHANG);
        if (r == *it || (r < 0 && errno != EINTR))
            it = children->erase(it);
        else if (block && r < 0)
            it = children->erase(it);
        else
            ++it;
    }
}

} // namespace

void
requestServerStop()
{
    gStop = 1;
}

int
runWorkerServer(const ir::Module& base,
                const core::FitnessFunction& fitness,
                const ServerOptions& opts)
{
    // A client vanishing mid-write must surface as EPIPE, not kill us.
    std::signal(SIGPIPE, SIG_IGN);
    installHandler(SIGINT, onStopSignal);
    installHandler(SIGTERM, onStopSignal);
    gStop = 0;

    // Precompile once; every session child inherits the cleaned base
    // and decoded programs by copy-on-write.
    const core::VariantCompiler compiler(base);
    const std::uint64_t scope =
        core::scopeFingerprint(compiler.compile({}), fitness);

    Endpoint ep;
    std::string error;
    if (!parseEndpoint(opts.listenSpec, &ep, &error))
        GEVO_FATAL("workerd: %s", error.c_str());
    const int listenFd = listenEndpoint(ep, &error);
    if (listenFd < 0)
        GEVO_FATAL("workerd: %s", error.c_str());

    inform("workerd: serving '%s' (scope %016llx) on %s",
           opts.banner.c_str(), static_cast<unsigned long long>(scope),
           opts.listenSpec.c_str());
    if (!opts.readyFile.empty()) {
        std::FILE* f = std::fopen(opts.readyFile.c_str(), "w");
        if (f != nullptr) {
            std::fprintf(f, "%s\n", opts.listenSpec.c_str());
            std::fclose(f);
        } else {
            warn("workerd: cannot write ready file '%s': %s",
                 opts.readyFile.c_str(), std::strerror(errno));
        }
    }

    std::vector<pid_t> sessions;
    while (gStop == 0) {
        const int conn = ::accept(listenFd, nullptr, nullptr);
        if (conn < 0) {
            if (errno == EINTR || errno == ECONNABORTED) {
                reapSessions(&sessions, false);
                continue;
            }
            warn("workerd: accept failed: %s", std::strerror(errno));
            break;
        }
        reapSessions(&sessions, false);
        const pid_t pid = ::fork();
        if (pid < 0) {
            warn("workerd: fork failed: %s (dropping connection)",
                 std::strerror(errno));
            ::close(conn);
            continue;
        }
        if (pid == 0) {
            // Session child: the daemon's stop signals are not ours to
            // handle (SIGTERM default-kills us, which is correct), and
            // the listening socket is not ours to hold open.
            installHandler(SIGINT, SIG_DFL);
            installHandler(SIGTERM, SIG_DFL);
            ::close(listenFd);
            // A session-local cache: repeat programs across the client's
            // generations are served without re-simulation.
            core::VariantCache cache;
            WorkerSession session(compiler, fitness, &cache, scope,
                                  opts.banner);
            session.serve(conn);
            ::close(conn);
            std::_Exit(0);
        }
        ::close(conn);
        sessions.push_back(pid);
    }

    for (const pid_t pid : sessions)
        ::kill(pid, SIGKILL);
    reapSessions(&sessions, true);
    ::close(listenFd);
    if (ep.isUnix)
        ::unlink(ep.path.c_str());
    if (!opts.readyFile.empty())
        ::unlink(opts.readyFile.c_str());
    inform("workerd: stopped");
    return 0;
}

} // namespace gevo::farm
