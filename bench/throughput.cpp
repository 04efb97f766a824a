/// Evaluation-pipeline throughput: the perf-trajectory anchor.
///
/// The search loop's cost is fitness evaluation — population 256 x 300
/// generations is ~77k variant evaluations per full-scale run — so
/// variants/sec is the metric every future optimization PR moves. This
/// bench iterates the workload registry (default: every registered
/// workload; --workloads narrows it) and runs each workload's bench-scale
/// seeded mini-search twice:
///
///   uncached — the literal compile-per-call reference path: every
///              individual is patched, cleaned, verified, decoded and
///              simulated every generation, with no memo of any kind
///              (strictly less caching than even the seed engine's
///              per-individual evaluated flag), and
///   cached   — the two-stage pipeline with the per-individual memo and
///              the two-level content-addressed variant cache
///              (within-generation dedup + cross-generation reuse).
///
/// It reports variants/sec for both modes, the cache hit rate, and
/// verifies that both modes discover the identical best edit list (the
/// cache must be trajectory-neutral).
///
/// The acceptance gate (adept-v0 cached >= 3x uncached) is measured
/// apart from the table: each mode's search is repeated kGateRepeats
/// times at one evaluation thread, alternating modes, and the gate reads
/// the ratio of the median variants/sec. One thread keeps the verdict
/// independent of the host's core count (ADEPT's speculative block
/// launches still use idle cores inside each evaluation), and medians
/// keep a sub-second cached search from flipping the verdict on noise. A
/// scaling row repeats the cached search at 4 threads.
///
/// With `--json=<path>` the same measurements are additionally written as
/// a machine-readable JSON artifact (per-workload uncached/cached and,
/// with --cache-path, cold/warm variants/sec, hit rates, trajectory
/// checks, and the gate verdict) so CI tracks the perf trajectory as a
/// build artifact instead of prose.
///
/// With `--cache-path=<dir>` the bench also measures warm starts
/// (core/cache_store.h): a third run persists its caches to
/// <dir>/<workload>.gevocache from a cold start, and a fourth loads them
/// back, reporting cold vs warm variants/sec and hit rate. The warm run
/// must preload entries, beat the cold hit rate, and land on the
/// identical best edit list — persistence has to be trajectory-neutral
/// too.

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <memory>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include "apps/registry.h"
#include "bench_util.h"
#include "core/fitness.h"
#include "core/portfolio.h"
#include "core/workload.h"
#include "farm/server.h"
#include "mutation/edit.h"
#include "support/logging.h"
#include "support/strings.h"

namespace {

using namespace gevo;

/// One mode's measurements.
struct RunStats {
    double seconds = 0.0;
    std::size_t requests = 0;    ///< Individuals scored (pop x gens).
    std::size_t simulations = 0; ///< Requests that cost pipeline work.
    std::size_t preloaded = 0;   ///< Entries loaded from a cache file.
    /// Evaluations that killed/wedged their worker (isolated backend;
    /// always 0 in-process unless a fault is injected).
    std::size_t evalFailures = 0;
    std::size_t quarantined = 0; ///< Quarantined genotypes at run end.
    double speedup = 0.0;        ///< Search result (baseline / best).
    std::string bestEdits;       ///< Serialized best edit list.

    double
    variantsPerSec() const
    {
        return seconds > 0.0 ? static_cast<double>(requests) / seconds
                             : 0.0;
    }

    double
    hitRate() const
    {
        return requests ? static_cast<double>(requests - simulations) /
                              static_cast<double>(requests)
                        : 0.0;
    }
};

RunStats
runSearch(const ir::Module& module, const core::FitnessFunction& fitness,
          core::EvolutionParams params, bool useCache)
{
    params.useCache = useCache;
    core::EvolutionEngine engine(module, fitness, params);
    const auto t0 = std::chrono::steady_clock::now();
    const auto result = engine.run();
    const auto t1 = std::chrono::steady_clock::now();

    RunStats s;
    s.seconds = std::chrono::duration<double>(t1 - t0).count();
    // Every individual needs a fitness every generation; the pipeline
    // either simulates it or serves it from a memo/cache level.
    s.requests = static_cast<std::size_t>(params.populationSize) *
                 params.generations * params.islands;
    for (const auto& log : result.history)
        s.simulations += log.cacheMisses;
    s.preloaded = result.cacheSummary.preloaded;
    s.evalFailures = result.evalFailures;
    s.quarantined = result.quarantined;
    s.speedup = result.speedup();
    s.bestEdits = mut::serializeEdits(result.best.edits);
    return s;
}

/// One loopback farm worker daemon (Unix-domain socket) serving this
/// bench process's workload instance for the --remote-workers rows.
class LoopbackWorker {
  public:
    LoopbackWorker(const core::WorkloadInstance& instance,
                   const std::string& banner)
    {
        static int counter = 0;
        const std::string tag = strformat("/tmp/gevo_bench_farm_%d_%d",
                                          ::getpid(), counter++);
        socketPath_ = tag + ".sock";
        readyPath_ = tag + ".ready";
        pid_ = ::fork();
        if (pid_ == -1)
            GEVO_FATAL("fork for loopback farm worker failed");
        if (pid_ == 0) {
            ::setpgid(0, 0); // Sessions die with the daemon.
            farm::ServerOptions opts;
            opts.listenSpec = "unix:" + socketPath_;
            opts.readyFile = readyPath_;
            opts.banner = banner;
            ::_Exit(farm::runWorkerServer(instance.module(),
                                          instance.fitness(), opts));
        }
        ::setpgid(pid_, pid_);
        for (int i = 0; i < 750 && ::access(readyPath_.c_str(), F_OK) != 0;
             ++i)
            ::usleep(20 * 1000);
        if (::access(readyPath_.c_str(), F_OK) != 0)
            GEVO_FATAL("loopback farm worker never came up on %s",
                       socketPath_.c_str());
    }

    ~LoopbackWorker()
    {
        ::kill(-pid_, SIGKILL);
        ::waitpid(pid_, nullptr, 0);
        for (int i = 0; i < 750 && ::kill(-pid_, 0) == 0; ++i)
            ::usleep(2 * 1000);
        ::unlink(socketPath_.c_str());
        ::unlink(readyPath_.c_str());
    }

    std::string spec() const { return "unix:" + socketPath_; }

  private:
    pid_t pid_ = -1;
    std::string socketPath_;
    std::string readyPath_;
};

/// Everything measured for one workload, for both the table and the JSON
/// artifact.
struct WorkloadReport {
    std::string name;
    RunStats uncached;
    RunStats cached;
    RunStats remote;
    RunStats portfolio;
    RunStats cold;
    RunStats warm;
    bool haveWarm = false;      ///< --cache-path rows were run.
    bool haveRemote = false;    ///< --remote-workers rows were run.
    bool havePortfolio = false; ///< --portfolio-devices row was run.
    bool trajectoryIdentical = false;
    bool warmOk = true;         ///< Warm-start invariants held.
    bool remoteOk = true;       ///< Remote row kept the trajectory.
    bool portfolioOk = true;    ///< Portfolio row completed cleanly.

    /// Cached-over-uncached variants/sec ratio; 0 when the best edit
    /// lists disagree, which would invalidate the comparison.
    double
    gateRatio() const
    {
        if (!trajectoryIdentical || cached.seconds <= 0.0)
            return 0.0;
        return cached.variantsPerSec() / uncached.variantsPerSec();
    }
};

/// A workload's bench-scale instance (its bench knobs, then flags).
std::unique_ptr<core::WorkloadInstance>
benchInstance(const core::Workload& workload, const Flags& flags)
{
    core::WorkloadConfig config;
    config.flags = &flags;
    config.defaults = workload.benchKnobs;
    return workload.make(config);
}

/// A workload's bench-scale search parameters, with flag overrides.
core::EvolutionParams
benchParams(const core::Workload& workload, const Flags& flags)
{
    core::EvolutionParams params = workload.benchDefaults;
    params.populationSize = static_cast<std::uint32_t>(
        flags.getInt("pop", params.populationSize));
    params.generations = static_cast<std::uint32_t>(
        flags.getInt("gens", params.generations));
    params.seed = static_cast<std::uint64_t>(
        flags.getInt("seed", static_cast<std::int64_t>(params.seed)));
    params.threads =
        static_cast<std::uint32_t>(flags.getInt("threads", params.threads));
    params.islands =
        static_cast<std::uint32_t>(flags.getInt("islands", params.islands));
    return params;
}

/// Timed searches per mode behind the gate and the scaling row.
constexpr int kGateRepeats = 5;
/// Evaluation threads of the gate's searches, and of the scaling row.
constexpr std::uint32_t kGateThreads = 1;
constexpr std::uint32_t kScalingThreads = 4;

double
medianOf(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

/// The gate's measurements (see the file comment).
struct GateReport {
    double uncachedMedian = 0.0; ///< variants/s at kGateThreads.
    double cachedMedian = 0.0;
    double scaledMedian = 0.0; ///< Cached variants/s at kScalingThreads.
    /// Every repeat of every mode found the same best edit list.
    bool trajectoryIdentical = true;

    double
    ratio() const
    {
        return trajectoryIdentical && uncachedMedian > 0.0
                   ? cachedMedian / uncachedMedian
                   : 0.0;
    }

    double
    scaling() const
    {
        return cachedMedian > 0.0 ? scaledMedian / cachedMedian : 0.0;
    }
};

GateReport
measureGate(const core::Workload& workload, const Flags& flags)
{
    const auto instance = benchInstance(workload, flags);
    core::EvolutionParams params = benchParams(workload, flags);
    std::vector<double> uncached, cached, scaled;
    std::string best;
    GateReport gate;
    const auto record = [&](const RunStats& s, std::vector<double>* into) {
        into->push_back(s.variantsPerSec());
        if (best.empty())
            best = s.bestEdits;
        gate.trajectoryIdentical =
            gate.trajectoryIdentical && s.bestEdits == best;
    };
    for (int rep = 0; rep < kGateRepeats; ++rep) {
        params.threads = kGateThreads;
        record(runSearch(instance->module(), instance->fitness(), params,
                         false),
               &uncached);
        record(runSearch(instance->module(), instance->fitness(), params,
                         true),
               &cached);
        params.threads = kScalingThreads;
        record(runSearch(instance->module(), instance->fitness(), params,
                         true),
               &scaled);
    }
    gate.uncachedMedian = medianOf(uncached);
    gate.cachedMedian = medianOf(cached);
    gate.scaledMedian = medianOf(scaled);
    Table t({"gate search", "threads", "runs", "median variants/s",
             "min", "max"});
    const auto row = [&t](const char* mode, std::uint32_t threads,
                          const std::vector<double>& v) {
        t.row().cell(mode).cell(static_cast<long long>(threads))
            .cell(static_cast<long long>(v.size())).cell(medianOf(v), 1)
            .cell(*std::min_element(v.begin(), v.end()), 1)
            .cell(*std::max_element(v.begin(), v.end()), 1);
    };
    row("compile-per-call", kGateThreads, uncached);
    row("two-stage+cache", kGateThreads, cached);
    row("two-stage+cache", kScalingThreads, scaled);
    t.print();
    std::printf("gate searches: best edit list identical across every "
                "run: %s; cached scaling %u -> %u threads: %.2fx\n\n",
                gate.trajectoryIdentical ? "yes" : "NO", kGateThreads,
                kScalingThreads, gate.scaling());
    return gate;
}

/// Run both modes on one workload and emit a table section. With
/// --cache-path also runs the cold-persist + warm-start pair.
WorkloadReport
benchWorkload(const core::Workload& workload, const Flags& flags)
{
    const auto instance = benchInstance(workload, flags);
    core::EvolutionParams params = benchParams(workload, flags);

    WorkloadReport report;
    report.name = workload.name;
    report.uncached = runSearch(instance->module(), instance->fitness(), params, false);
    report.cached = runSearch(instance->module(), instance->fitness(), params, true);
    const RunStats& uncached = report.uncached;
    const RunStats& cached = report.cached;

    const double ratio = cached.seconds > 0.0
                             ? cached.variantsPerSec() /
                                   uncached.variantsPerSec()
                             : 0.0;

    Table t({"workload", "mode", "variants", "evaluated", "wall s",
             "variants/s", "hit rate", "ratio"});
    t.row().cell(workload.name).cell("compile-per-call")
        .cell(static_cast<long long>(uncached.requests))
        .cell(static_cast<long long>(uncached.simulations))
        .cell(uncached.seconds, 2).cell(uncached.variantsPerSec(), 1)
        .cell("-").cell(1.0, 2);
    t.row().cell(workload.name).cell("two-stage+cache")
        .cell(static_cast<long long>(cached.requests))
        .cell(static_cast<long long>(cached.simulations))
        .cell(cached.seconds, 2).cell(cached.variantsPerSec(), 1)
        .cell(cached.hitRate(), 2).cell(ratio, 2);

    // Remote farm row: the same cached search sharded over N loopback
    // worker daemons through the socket protocol — what the framing,
    // round-trips and result commit cost relative to in-process.
    const int remoteWorkers =
        static_cast<int>(flags.getInt("remote-workers", 0));
    if (remoteWorkers > 0) {
        report.haveRemote = true;
        std::vector<std::unique_ptr<LoopbackWorker>> workers;
        std::string list;
        for (int i = 0; i < remoteWorkers; ++i) {
            workers.push_back(std::make_unique<LoopbackWorker>(
                *instance, workload.name + " bench worker"));
            if (!list.empty())
                list += ',';
            list += workers.back()->spec();
        }
        auto remoteParams = params;
        remoteParams.backend = core::EvalBackendKind::Remote;
        remoteParams.workers = list;
        if (remoteParams.evalTimeoutMs == 0)
            remoteParams.evalTimeoutMs = 30000;
        report.remote = runSearch(instance->module(), instance->fitness(), remoteParams, true);
        const RunStats& remote = report.remote;
        t.row().cell(workload.name)
            .cell(strformat("remote x%d", remoteWorkers))
            .cell(static_cast<long long>(remote.requests))
            .cell(static_cast<long long>(remote.simulations))
            .cell(remote.seconds, 2).cell(remote.variantsPerSec(), 1)
            .cell(remote.hitRate(), 2)
            .cell(remote.variantsPerSec() / uncached.variantsPerSec(), 2);
    }

    // Portfolio row: the cached search scored across a device set
    // (every evaluation is N simulations instead of one), so the
    // per-variant cost of cross-device generality is visible next to
    // the single-device rows.
    const std::string portfolioCsv =
        flags.getString("portfolio-devices", "");
    if (!portfolioCsv.empty()) {
        report.havePortfolio = true;
        const auto devices = sim::resolveDeviceList(portfolioCsv);
        const core::PortfolioFitness portfolioFitness(instance->fitness(),
                                                      devices);
        report.portfolio = runSearch(instance->module(), portfolioFitness,
                                     params, true);
        const RunStats& portfolio = report.portfolio;
        t.row().cell(workload.name)
            .cell(strformat("portfolio x%zu", devices.size()))
            .cell(static_cast<long long>(portfolio.requests))
            .cell(static_cast<long long>(portfolio.simulations))
            .cell(portfolio.seconds, 2)
            .cell(portfolio.variantsPerSec(), 1)
            .cell(portfolio.hitRate(), 2)
            .cell(portfolio.variantsPerSec() / uncached.variantsPerSec(),
                  2);
    }

    // Warm-start pair: cold run persists its caches, warm run reuses
    // them. Both are full searches — only the file differs.
    const std::string cacheDir = flags.getString("cache-path", "");
    RunStats& cold = report.cold;
    RunStats& warm = report.warm;
    if (!cacheDir.empty()) {
        report.haveWarm = true;
        const std::string path =
            cacheDir + "/" + workload.name + ".gevocache";
        std::remove(path.c_str()); // A genuine cold start.
        params.cachePath = path;
        cold = runSearch(instance->module(), instance->fitness(), params, true);
        warm = runSearch(instance->module(), instance->fitness(), params, true);
        t.row().cell(workload.name).cell("cold+persist")
            .cell(static_cast<long long>(cold.requests))
            .cell(static_cast<long long>(cold.simulations))
            .cell(cold.seconds, 2).cell(cold.variantsPerSec(), 1)
            .cell(cold.hitRate(), 2)
            .cell(cold.variantsPerSec() / uncached.variantsPerSec(), 2);
        t.row().cell(workload.name).cell("warm-start")
            .cell(static_cast<long long>(warm.requests))
            .cell(static_cast<long long>(warm.simulations))
            .cell(warm.seconds, 2).cell(warm.variantsPerSec(), 1)
            .cell(warm.hitRate(), 2)
            .cell(warm.variantsPerSec() / uncached.variantsPerSec(), 2);
    }
    t.print();

    const bool sameBest = uncached.bestEdits == cached.bestEdits;
    report.trajectoryIdentical = sameBest;
    std::printf("best edit list identical across modes: %s "
                "(search speedup %.2fx vs %.2fx)\n",
                sameBest ? "yes" : "NO — CACHE CHANGED THE TRAJECTORY",
                uncached.speedup, cached.speedup);
    if (report.haveRemote) {
        const bool remoteSame =
            report.remote.bestEdits == uncached.bestEdits &&
            report.remote.evalFailures == 0;
        report.remoteOk = remoteSame;
        std::printf("remote farm row: %s (%.1f variants/s over the "
                    "socket, %zu eval failures, trajectory %s)\n",
                    remoteSame ? "PASS" : "FAIL",
                    report.remote.variantsPerSec(),
                    report.remote.evalFailures,
                    report.remote.bestEdits == uncached.bestEdits
                        ? "identical"
                        : "DIVERGED");
    }
    if (report.havePortfolio) {
        // The portfolio scores a different (multi-device) fitness, so
        // its best edit list may legitimately differ from the
        // single-device rows; the invariants are a clean, productive
        // run.
        const bool ok = report.portfolio.evalFailures == 0 &&
                        report.portfolio.speedup > 0.0;
        report.portfolioOk = ok;
        std::printf("portfolio row: %s (%.1f variants/s across %s, "
                    "search speedup %.2fx)\n",
                    ok ? "PASS" : "FAIL",
                    report.portfolio.variantsPerSec(),
                    portfolioCsv.c_str(), report.portfolio.speedup);
    }
    if (!cacheDir.empty()) {
        const bool warmSame = cold.bestEdits == uncached.bestEdits &&
                              warm.bestEdits == uncached.bestEdits;
        const bool ok = warmSame && warm.preloaded > 0 &&
                        warm.hitRate() > cold.hitRate();
        report.warmOk = ok;
        std::printf("warm start: %s (preloaded %zu entries, hit rate "
                    "%.2f cold -> %.2f warm, trajectory %s)\n",
                    ok ? "PASS" : "FAIL", warm.preloaded, cold.hitRate(),
                    warm.hitRate(),
                    warmSame ? "identical" : "DIVERGED");
    }
    std::printf("\n");
    return report;
}

// ---- JSON artifact ----

void
jsonMode(std::FILE* f, const char* name, const RunStats& s, bool last)
{
    std::fprintf(f,
                 "        \"%s\": {\"variants_per_s\": %.2f, "
                 "\"hit_rate\": %.4f, \"requests\": %zu, "
                 "\"evaluated\": %zu, \"preloaded\": %zu, "
                 "\"evalFailures\": %zu, \"quarantined\": %zu, "
                 "\"wall_s\": %.4f}%s\n",
                 name, s.variantsPerSec(), s.hitRate(), s.requests,
                 s.simulations, s.preloaded, s.evalFailures,
                 s.quarantined, s.seconds, last ? "" : ",");
}

/// Write the machine-readable artifact. Workload names come from the
/// registry (no exotic characters), so plain printf emission is safe.
bool
writeJson(const std::string& path,
          const std::vector<WorkloadReport>& reports, bool gateRan,
          const GateReport& gate, double otherMin, bool warmStartOk,
          bool gatePass)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write JSON artifact %s\n",
                     path.c_str());
        return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"throughput\",\n");
    std::fprintf(f, "  \"gate\": {\"name\": \"adept-v0 cached/uncached "
                    ">= 3x\", \"ran\": %s, \"pass\": %s, "
                    "\"ratio\": %.3f, \"threads\": %u, \"runs\": %d, "
                    "\"uncached_median_variants_per_s\": %.2f, "
                    "\"cached_median_variants_per_s\": %.2f, "
                    "\"trajectory_identical\": %s, "
                    "\"others_min_ratio\": %.3f},\n",
                 gateRan ? "true" : "false", gatePass ? "true" : "false",
                 gate.ratio(), kGateThreads, kGateRepeats,
                 gate.uncachedMedian, gate.cachedMedian,
                 gate.trajectoryIdentical ? "true" : "false",
                 otherMin < 0.0 ? 0.0 : otherMin);
    if (gateRan)
        std::fprintf(f, "  \"scaling\": {\"workload\": \"adept-v0\", "
                        "\"mode\": \"cached\", \"runs\": %d, "
                        "\"threads_%u_median_variants_per_s\": %.2f, "
                        "\"threads_%u_median_variants_per_s\": %.2f, "
                        "\"ratio\": %.3f},\n",
                     kGateRepeats, kGateThreads, gate.cachedMedian,
                     kScalingThreads, gate.scaledMedian, gate.scaling());
    std::fprintf(f, "  \"warm_start_ok\": %s,\n",
                 warmStartOk ? "true" : "false");
    std::fprintf(f, "  \"workloads\": [\n");
    for (std::size_t i = 0; i < reports.size(); ++i) {
        const WorkloadReport& r = reports[i];
        std::fprintf(f, "    {\n      \"name\": \"%s\",\n",
                     r.name.c_str());
        std::fprintf(f, "      \"trajectory_identical\": %s,\n",
                     r.trajectoryIdentical ? "true" : "false");
        std::fprintf(f, "      \"ratio_cached_over_uncached\": %.3f,\n",
                     r.gateRatio());
        std::fprintf(f, "      \"warm_ok\": %s,\n",
                     r.warmOk ? "true" : "false");
        std::fprintf(f, "      \"remote_ok\": %s,\n",
                     r.remoteOk ? "true" : "false");
        std::fprintf(f, "      \"portfolio_ok\": %s,\n",
                     r.portfolioOk ? "true" : "false");
        std::fprintf(f, "      \"modes\": {\n");
        jsonMode(f, "uncached", r.uncached, false);
        jsonMode(f, "cached", r.cached,
                 !r.haveWarm && !r.haveRemote && !r.havePortfolio);
        if (r.haveRemote)
            jsonMode(f, "remote", r.remote,
                     !r.haveWarm && !r.havePortfolio);
        if (r.havePortfolio)
            jsonMode(f, "portfolio", r.portfolio, !r.haveWarm);
        if (r.haveWarm) {
            jsonMode(f, "cold_persist", r.cold, false);
            jsonMode(f, "warm_start", r.warm, true);
        }
        std::fprintf(f, "      }\n    }%s\n",
                     i + 1 < reports.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote JSON artifact: %s\n", path.c_str());
    return true;
}

void
printHelp(const core::WorkloadRegistry& registry)
{
    FlagUsage usage("throughput",
                    "cached vs uncached variants/sec per registered "
                    "workload; exits non-zero unless adept-v0 reaches 3x "
                    "with an identical best edit list in both modes");
    usage.section("search")
        .flag("workloads", "<list>",
              "comma-separated workloads to run (default: every "
              "registered one)")
        .flag("pop", "<n>", "population size (default: the workload's "
                            "bench scale)")
        .flag("gens", "<n>", "generations")
        .flag("seed", "<n>", "search seed")
        .flag("threads", "<n>", "evaluation threads of the table rows "
                                "(0 = hardware; the gate runs at 1)")
        .flag("islands", "<n>", "island count");
    usage.section("extra rows")
        .flag("remote-workers", "<n>",
              "also run the cached search over n loopback farm workers")
        .flag("portfolio-devices", "<list>",
              "also run the cached search scored across this device set")
        .flag("cache-path", "<dir>",
              "also run a cold-persist + warm-start pair with cache files "
              "in this directory");
    usage.section("output")
        .flag("json", "<file>", "write the measurements as a JSON "
                                "artifact");
    usage.section("registered workloads (scale knobs: evolve --help)");
    for (const auto& name : registry.names())
        usage.item(name, registry.get(name).summary);
    usage.print();
}

} // namespace

int
main(int argc, char** argv)
{
    // The --remote-workers rows write to farm sockets; a worker going
    // away must surface as a write error, not kill the bench.
    std::signal(SIGPIPE, SIG_IGN);
    apps::registerBuiltinWorkloads();
    auto& registry = core::WorkloadRegistry::instance();
    const Flags flags(argc, argv);
    if (flags.helpRequested()) {
        printHelp(registry);
        return 0;
    }
    bench::banner("Evaluation-pipeline throughput (variants/sec, cache "
                  "hit rate)",
                  "the GEVO fitness-caching recipe, Liou et al. TACO 2020");

    // Default set: every registered workload at its bench-scale
    // perf-anchor configuration; the gate is keyed on adept-v0.
    const auto names = bench::workloadList(flags, registry);

    bool gateRan = false;
    bool warmStartOk = true;
    bool remoteOk = true;
    bool portfolioOk = true;
    GateReport gate;
    double otherMin = -1.0;
    std::vector<WorkloadReport> reports;
    for (const auto& name : names) {
        reports.push_back(benchWorkload(registry.get(name), flags));
        const WorkloadReport& report = reports.back();
        if (!report.warmOk)
            warmStartOk = false;
        if (!report.remoteOk)
            remoteOk = false;
        if (!report.portfolioOk)
            portfolioOk = false;
        const double ratio = report.gateRatio();
        if (name == "adept-v0") {
            gateRan = true;
            gate = measureGate(registry.get(name), flags);
        } else if (otherMin < 0.0 || ratio < otherMin) {
            otherMin = ratio;
        }
    }
    const double adeptRatio = gate.ratio();

    if (!warmStartOk)
        std::printf("warm-start check: FAIL (see per-workload lines "
                    "above)\n");
    if (!remoteOk)
        std::printf("remote farm check: FAIL (see per-workload lines "
                    "above)\n");
    if (!portfolioOk)
        std::printf("portfolio check: FAIL (see per-workload lines "
                    "above)\n");
    const bool gatePass = gateRan && adeptRatio >= 3.0;
    const std::string jsonPath = flags.getString("json", "");
    bool jsonOk = true;
    if (!jsonPath.empty())
        jsonOk = writeJson(jsonPath, reports, gateRan, gate, otherMin,
                           warmStartOk, gatePass);
    if (!gateRan) {
        // A narrowed --workloads list without adept-v0 is a valid probe
        // run; only the gate configuration can pass/fail the gate.
        std::printf("acceptance gate (adept-v0 >= 3x): not run (adept-v0 "
                    "not in --workloads; min measured ratio %.2fx)\n",
                    otherMin < 0.0 ? 0.0 : otherMin);
        return warmStartOk && remoteOk && portfolioOk && jsonOk ? 0 : 1;
    }
    // With adept-v0 alone there is no other ratio to report.
    const std::string others =
        otherMin < 0.0 ? "" : strformat("; others min %.2fx", otherMin);
    std::printf("acceptance gate (adept-v0 >= 3x, median of %d runs per "
                "mode at %u thread): %s (%.2fx%s)\n",
                kGateRepeats, kGateThreads, gatePass ? "PASS" : "FAIL",
                adeptRatio, others.c_str());
    return gatePass && warmStartOk && remoteOk && portfolioOk && jsonOk
               ? 0
               : 1;
}
