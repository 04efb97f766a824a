/// gevo-workerd: the farm's evaluation worker daemon.
///
/// Serves fitness evaluations for exactly one workload configuration
/// over a TCP or Unix-domain socket (src/farm/). Start one per core (or
/// per machine) and point `evolve --backend=remote --workers=...` at
/// them; the client's handshake carries a trajectory-scope fingerprint,
/// so a daemon built for a different workload/device/dataset rejects
/// the connection instead of silently serving wrong fitness values.
/// Each accepted connection is served by a forked child — a hostile
/// variant kills only its session, and the daemon survives to accept
/// the client's redispatch.
///
///   build/examples/workerd --workload=adept-v0 --listen=127.0.0.1:7701
///   build/examples/workerd --workload=stencil --listen=unix:/tmp/w0.sock
///
/// SIGTERM/SIGINT stop the daemon cleanly (sessions are killed, the
/// socket file is unlinked).

#include <csignal>
#include <cstdio>

#include "apps/registry.h"
#include "apps/workload_flags.h"
#include "farm/server.h"
#include "support/flags.h"
#include "support/logging.h"

using namespace gevo;

namespace {

void
printHelp()
{
    FlagUsage usage("workerd", "farm evaluation worker daemon: serves "
                               "one workload's fitness evaluations to "
                               "evolve --backend=remote clients");
    usage.section("daemon")
        .flag("listen", "<endpoint>",
              "listen address: host:port (TCP) or unix:/path "
              "(Unix-domain socket); required")
        .flag("ready-file", "<file>",
              "create this file once the socket is accepting (scripts "
              "poll it instead of racing the bind)")
        .flag("workload", "<name>",
              "workload to serve (default adept-v1); must match the "
              "client's workload, device and scale knobs exactly — the "
              "handshake enforces this via the trajectory-scope "
              "fingerprint")
        .flag("device", "<gpu>",
              "device model, e.g. P100/V100 (default P100)")
        .flag("devices", "<list>",
              "serve a device-portfolio fitness over this "
              "comma-separated device set ('all' = the full Table I "
              "set); must match the client's --devices exactly")
        .flag("device-agg", "<kind>",
              "portfolio aggregation: worst (default) or mean");
    apps::listWorkloads(&usage);
    usage.print();
}

} // namespace

int
main(int argc, char** argv)
{
    // Process-wide: a client hanging up mid-frame must surface as a
    // write error the session loop handles, never a SIGPIPE death.
    std::signal(SIGPIPE, SIG_IGN);
    // The serving/stopped lines are a daemon's only signs of life.
    support::setLogThreshold(LogLevel::Info);
    apps::registerBuiltinWorkloads();
    const Flags flags(argc, argv);
    if (flags.helpRequested()) {
        printHelp();
        return 0;
    }

    const auto listenSpec = flags.getString("listen", "");
    if (listenSpec.empty())
        GEVO_FATAL("--listen is required (host:port or unix:/path); see "
                   "--help");

    // The same binding as evolve's: the served fitness's name() feeds
    // the trajectory-scope fingerprint, so the handshake rejects a client
    // searching another workload, scale or device set.
    const auto bound = apps::bindWorkload(flags);

    farm::ServerOptions opts;
    opts.listenSpec = listenSpec;
    opts.readyFile = flags.getString("ready-file", "");
    opts.banner = bound.workload->name + ": " + bound.instance->banner();

    return farm::runWorkerServer(bound.instance->module(), bound.fitness(),
                                 opts);
}
