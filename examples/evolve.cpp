/// Registry-driven evolution driver: one binary for every workload.
///
/// Replaces the per-app evolve_adept/evolve_simcov drivers. Pick a
/// workload with --workload (see --help for the registered set and each
/// workload's scale knobs), a search topology with --islands /
/// --migration-interval / --migration-count, and the usual GA knobs. The
/// flow is the paper's (Sec III-E, Fig. 1): build the app's kernels in
/// IR, validate against the CPU oracle, evolve edit lists, then map the
/// best edits back to source locations (Sec VI methodology) and compare
/// against the golden-edit ceiling.

#include <csignal>
#include <cstdio>

#include "apps/registry.h"
#include "apps/workload_flags.h"
#include "core/engine.h"
#include "core/objectives.h"
#include "mutation/edit.h"
#include "support/flags.h"
#include "support/logging.h"

using namespace gevo;

namespace {

/// Engine behind the SIGINT/SIGTERM handlers. A signal asks the engine
/// to finish the in-flight generation, write the final checkpoint and
/// cache saves, and return normally — no state is torn down from inside
/// the handler (requestStop is one lock-free atomic store, the only
/// thing that is async-signal-safe to do here).
core::EvolutionEngine* g_engine = nullptr;

void
onStopSignal(int)
{
    if (g_engine != nullptr)
        g_engine->requestStop();
}

void
printHelp()
{
    FlagUsage usage("evolve", "evolutionary search over any registered "
                              "workload");
    usage.section("search")
        .flag("workload", "<name>", "workload to evolve (default adept-v1)")
        .flag("list-workloads", "",
              "print registered workload names, one per line, and exit "
              "(machine-readable; drives the CI smoke matrix)")
        .flag("device", "<gpu>", "device model, e.g. P100/V100 (default "
                                 "P100)")
        .flag("pop", "<n>", "population size per island")
        .flag("gens", "<n>", "generations")
        .flag("elitism", "<n>", "elites preserved per generation")
        .flag("seed", "<n>", "search seed")
        .flag("threads", "<n>", "evaluation threads (0 = hardware)")
        .flag("cache", "<bool>", "two-level variant cache (default on)")
        .flag("cache-max", "<n>",
              "entry bound per cache level, least recently used evicted "
              "first (0 = unbounded)")
        .flag("cache-path", "<file>",
              "persist the caches across runs: load before gen 1, save on "
              "completion (default off)")
        .flag("cache-save-interval", "<n>",
              "also save every n generations, 0 = only on completion");
    usage.section("islands")
        .flag("islands", "<n>", "island count (1 = panmictic, the paper's "
                                "configuration)")
        .flag("migration-interval", "<n>",
              "generations between ring migrations (0 = isolated)")
        .flag("migration-count", "<n>", "individuals migrated per edge")
        .flag("topology", "<kind>",
              "island connectivity: auto (panmictic for 1 island, ring "
              "otherwise; default), panmictic, ring, torus or star")
        .flag("fitness-aware-migrants", "",
              "incoming migrants replace an island's worst residents "
              "only when strictly fitter (default: unconditional)");
    usage.section("multi-objective & device portfolio")
        .flag("devices", "<list>",
              "score each variant on this comma-separated device set "
              "(e.g. p100,v100; 'all' = the full Table I set) instead of "
              "the single --device model; per-objective values are "
              "aggregated across devices")
        .flag("device-agg", "<kind>",
              "portfolio aggregation: worst (per-objective max, default) "
              "or mean")
        .flag("objectives", "<list>",
              "objectives driving Pareto selection, comma-separated from "
              "cycles, sectors, divergence ('all' = every objective; "
              "default cycles)")
        .flag("select", "<kind>",
              "survivor selection: scalar (rank by cycles, the paper's "
              "rule, default) or pareto (NSGA-II non-dominated sort + "
              "crowding distance over --objectives)");
    usage.section("diagnosis-driven search")
        .flag("sampler", "<kind>",
              "edit-site sampling: uniform (the paper's operator, "
              "default) or guided (biases edit sites toward the hot "
              "source locations of each island's profiled elite)")
        .flag("explore-floor", "<f>",
              "guided sampler's minimum site weight in [0,1]: 0 = pure "
              "exploitation, 1 = uniform (default 0.25)")
        .flag("adapt-rates", "",
              "self-adapt the per-island operator rates (1+1-ES rule: "
              "perturb, keep on improvement, revert otherwise; rates "
              "are logged per generation)");
    usage.section("robustness")
        .flag("backend", "<kind>",
              "evaluation backend: inprocess (default, fastest), "
              "isolated (forked worker sessions that live for the "
              "search; a "
              "variant that crashes or hangs its session twice is "
              "penalized and quarantined instead of killing the search), "
              "or remote (the same sessions, served by gevo-workerd "
              "daemons); fault-free runs of either are "
              "trajectory-identical to inprocess")
        .flag("workers", "<list>",
              "remote-backend worker endpoints, comma-separated "
              "host:port or unix:/path (required with --backend=remote)")
        .flag("eval-timeout-ms", "<n>",
              "per-evaluation watchdog budget for the isolated and "
              "remote backends (default 30000)")
        .flag("checkpoint-path", "<file>",
              "durable search-state snapshots: save every "
              "checkpoint-interval generations and on completion or "
              "SIGINT/SIGTERM (default off)")
        .flag("checkpoint-interval", "<n>",
              "generations between periodic checkpoints (default 10, 0 = "
              "only on completion/interruption)")
        .flag("resume", "",
              "restore search state from --checkpoint-path and continue; "
              "the resumed trajectory is bit-identical to an "
              "uninterrupted run")
        .flag("dump-history", "<file>",
              "write the per-generation history (deterministic fields "
              "only, exact float bits) to a file — resumed and "
              "uninterrupted runs produce byte-identical dumps");
    apps::listWorkloads(&usage);
    usage.print();
}

/// Map an edit's anchor back to a source location (paper Sec VI: "we
/// trace each relevant code edit in the LLVM-IR level back to its
/// corresponding CUDA source code").
std::string
locateEdit(const ir::Module& module, const mut::Edit& e)
{
    for (std::size_t f = 0; f < module.numFunctions(); ++f) {
        const auto pos = module.function(f).findUid(e.srcUid);
        if (pos.valid()) {
            const auto& in = module.function(f).at(pos);
            auto locName = module.locString(in.loc);
            return locName.empty() ? module.function(f).name : locName;
        }
    }
    return "(location unknown)";
}

/// Write the per-generation history restricted to its deterministic
/// fields — %a renders exact float bits; cacheHits/cacheMisses are
/// deliberately excluded (they wobble under threads > 1 and across a
/// resume's cold cache, the trajectory does not). A resumed run and an
/// uninterrupted run of the same search produce byte-identical dumps,
/// which is exactly what the CI crash-resilience smoke diffs.
void
dumpHistory(const std::string& path, const core::SearchResult& result)
{
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        GEVO_FATAL("cannot open '%s' for writing", path.c_str());
    for (const auto& log : result.history) {
        std::string edits = mut::serializeEdits(log.bestEdits);
        for (auto& c : edits) {
            if (c == '\n')
                c = '|';
        }
        std::fprintf(f,
                     "gen %u best %a mean %a valid %zu evals %zu qhits "
                     "%zu crash %zu timeout %zu protocol %zu islands",
                     log.generation, log.bestMs, log.meanMs,
                     log.validCount, log.evaluations, log.quarantineHits,
                     log.workerCrashes, log.workerTimeouts,
                     log.protocolErrors);
        for (const double ms : log.islandBestMs)
            std::fprintf(f, " %a", ms);
        // Only present under --adapt-rates; the default dump stays
        // byte-identical to pre-adaptation builds.
        for (const auto& rt : log.islandRates)
            std::fprintf(f, " rates %a %a %a %a %a %a", rt.wDelete,
                         rt.wCopy, rt.wMove, rt.wReplace, rt.wSwap,
                         rt.wOperand);
        // Only present under --select=pareto; the default dump stays
        // byte-identical to scalar-selection builds.
        if (log.paretoFrontSize != 0)
            std::fprintf(f, " front %zu", log.paretoFrontSize);
        std::fprintf(f, " edits %s\n", edits.c_str());
    }
    std::fclose(f);
}

} // namespace

int
main(int argc, char** argv)
{
    // Process-wide: a worker session (isolated or remote) vanishing
    // mid-write must surface as a write error the backend handles, never
    // as a SIGPIPE death of the whole search.
    std::signal(SIGPIPE, SIG_IGN);
    apps::registerBuiltinWorkloads();
    auto& registry = core::WorkloadRegistry::instance();
    const Flags flags(argc, argv);
    if (flags.helpRequested() || flags.getBool("list", false)) {
        printHelp();
        return 0;
    }
    if (flags.getBool("list-workloads", false)) {
        // Machine-readable registry dump: exactly one name per line,
        // nothing else — CI enumerates the smoke matrix from this.
        for (const auto& name : registry.names())
            std::printf("%s\n", name.c_str());
        return 0;
    }

    // A device portfolio wraps the workload's fitness; everything
    // downstream (engine, backends, caches, farm) sees one
    // FitnessFunction whose name() encodes the device set.
    const auto bound = apps::bindWorkload(flags);
    const core::Workload& workload = *bound.workload;
    const auto& instance = bound.instance;
    const core::FitnessFunction* fitness = &bound.fitness();

    core::EvolutionParams params = workload.searchDefaults;
    params.populationSize = static_cast<std::uint32_t>(
        flags.getInt("pop", params.populationSize));
    params.generations = static_cast<std::uint32_t>(
        flags.getInt("gens", params.generations));
    params.elitism =
        static_cast<std::uint32_t>(flags.getInt("elitism", params.elitism));
    params.seed = static_cast<std::uint64_t>(
        flags.getInt("seed", static_cast<std::int64_t>(params.seed)));
    params.threads =
        static_cast<std::uint32_t>(flags.getInt("threads", params.threads));
    params.useCache = flags.getBool("cache", params.useCache);
    params.cacheMaxEntries = static_cast<std::size_t>(
        flags.getInt("cache-max", 0));
    params.cachePath = flags.getString("cache-path", params.cachePath);
    params.cacheSaveInterval = static_cast<std::uint32_t>(flags.getInt(
        "cache-save-interval", params.cacheSaveInterval));
    params.islands =
        static_cast<std::uint32_t>(flags.getInt("islands", params.islands));
    params.migrationInterval = static_cast<std::uint32_t>(
        flags.getInt("migration-interval", params.migrationInterval));
    params.migrationCount = static_cast<std::uint32_t>(
        flags.getInt("migration-count", params.migrationCount));
    const auto topologyName = flags.getChoice(
        "topology", {"auto", "panmictic", "ring", "torus", "star"}, "auto");
    params.topology = topologyName == "panmictic"
                          ? core::TopologyKind::Panmictic
                      : topologyName == "ring"  ? core::TopologyKind::Ring
                      : topologyName == "torus" ? core::TopologyKind::Torus
                      : topologyName == "star"  ? core::TopologyKind::Star
                                                : core::TopologyKind::Auto;
    params.fitnessAwareMigrants = flags.getBool(
        "fitness-aware-migrants", params.fitnessAwareMigrants);
    const auto samplerName =
        flags.getChoice("sampler", {"uniform", "guided"}, "uniform");
    params.samplerKind = samplerName == "guided"
                             ? core::SamplerKind::Guided
                             : core::SamplerKind::Uniform;
    params.sampler.exploreFloor =
        flags.getDouble("explore-floor", params.sampler.exploreFloor);
    params.adaptRates = flags.getBool("adapt-rates", params.adaptRates);
    const auto backendName = flags.getChoice(
        "backend", {"inprocess", "isolated", "remote"},
        params.backend == core::EvalBackendKind::Isolated ? "isolated"
                                                          : "inprocess");
    params.backend = backendName == "isolated"
                         ? core::EvalBackendKind::Isolated
                     : backendName == "remote"
                         ? core::EvalBackendKind::Remote
                         : core::EvalBackendKind::InProcess;
    params.workers = flags.getString("workers", params.workers);
    params.evalTimeoutMs = static_cast<std::uint32_t>(
        flags.getInt("eval-timeout-ms", params.evalTimeoutMs));
    params.checkpointPath =
        flags.getString("checkpoint-path", params.checkpointPath);
    params.checkpointInterval = static_cast<std::uint32_t>(
        flags.getInt("checkpoint-interval", params.checkpointInterval));
    params.resume = flags.getBool("resume", params.resume);
    params.objectives = core::resolveObjectiveList(
        flags.getString("objectives", "cycles"));
    const auto selectName =
        flags.getChoice("select", {"scalar", "pareto"}, "scalar");
    params.selection = selectName == "pareto"
                           ? core::SelectionKind::Pareto
                           : core::SelectionKind::Scalar;
    const auto dumpPath = flags.getString("dump-history", "");

    std::printf("%s: %s\n", workload.name.c_str(),
                instance->banner().c_str());
    std::printf("search: %s, population %u x %u generations, seed %llu, "
                "fitness %s\n",
                core::Topology(params).describe().c_str(),
                params.populationSize,
                params.generations,
                static_cast<unsigned long long>(params.seed),
                fitness->name().c_str());
    if (params.selection == core::SelectionKind::Pareto)
        std::printf("selection: pareto over %s\n",
                    core::objectiveListName(params.objectives).c_str());
    std::printf("sampler: %s", samplerName.c_str());
    if (params.samplerKind == core::SamplerKind::Guided)
        std::printf(", explore floor %.2f", params.sampler.exploreFloor);
    if (params.adaptRates)
        std::printf(", self-adaptive operator rates");
    std::printf("\n\n");

    core::EvolutionEngine engine(instance->module(), *fitness, params);
    // A Ctrl-C (or a scheduler's SIGTERM) ends the run gracefully: the
    // in-flight generation completes, the final checkpoint and cache
    // saves are written, and the summary below still prints — so a
    // multi-hour campaign never loses work to an interactive stop.
    g_engine = &engine;
    std::signal(SIGINT, onStopSignal);
    std::signal(SIGTERM, onStopSignal);
    const std::uint32_t stride = params.generations <= 12 ? 1 : 5;
    const auto result = engine.run(
        [&](const core::GenerationLog& log, const core::SearchResult& r) {
            if (log.generation % stride != 0 && log.generation != 1)
                return;
            std::printf("gen %3u: %.3fx (%zu valid", log.generation,
                        r.baselineMs / log.bestMs, log.validCount);
            if (log.islandBestMs.size() > 1) {
                std::printf("; islands");
                for (const double ms : log.islandBestMs)
                    std::printf(" %.3fx", r.baselineMs / ms);
            }
            std::printf(")\n");
            // Self-adaptation audit trail: the rates breeding the NEXT
            // generation, one tuple per island.
            for (std::size_t i = 0; i < log.islandRates.size(); ++i) {
                const auto& rt = log.islandRates[i];
                std::printf("  rates[%zu]: del %.3f copy %.3f move %.3f "
                            "repl %.3f swap %.3f opnd %.3f\n",
                            i, rt.wDelete, rt.wCopy, rt.wMove, rt.wReplace,
                            rt.wSwap, rt.wOperand);
            }
        });

    std::signal(SIGINT, SIG_DFL);
    std::signal(SIGTERM, SIG_DFL);
    g_engine = nullptr;
    if (!dumpPath.empty())
        dumpHistory(dumpPath, result);

    if (result.interrupted)
        std::printf("\ninterrupted: stopped after generation %zu of %u; "
                    "state saved%s — re-run with --resume to continue\n",
                    result.history.size() ? result.history.back().generation
                                          : std::size_t{0},
                    params.generations,
                    params.checkpointPath.empty()
                        ? " (no --checkpoint-path: progress is in the "
                          "cache only)"
                        : "");

    std::printf("\nbest: %.3fx with %zu edits\n", result.speedup(),
                result.best.edits.size());
    if (!result.paretoFront.empty()) {
        std::printf("pareto front: %zu non-dominated edit lists\n",
                    result.paretoFront.size());
        for (const auto& ind : result.paretoFront) {
            std::printf("  [");
            for (std::size_t i = 0; i < params.objectives.size(); ++i)
                std::printf(
                    "%s%s %.6g", i ? ", " : "",
                    std::string(core::objectiveName(params.objectives[i]))
                        .c_str(),
                    ind.fitness.objective(
                        static_cast<std::size_t>(params.objectives[i])));
            std::printf("] %zu edits\n", ind.edits.size());
        }
    }
    std::printf("cache: %zu served, %zu evaluated, %zu entries (%zu "
                "preloaded), %zu evicted\n",
                result.cacheSummary.served, result.cacheSummary.evaluated,
                result.cacheSummary.entries,
                result.cacheSummary.preloaded,
                result.cacheSummary.evictions);
    std::printf("robustness: %zu eval failures, %zu quarantined\n",
                result.evalFailures, result.quarantined);
    if (result.interrupted)
        return 0; // Partial run: skip validation/ceiling of a mid-search
                  // best (the summary above is the deliverable).

    std::printf("\nedit -> source mapping:\n");
    for (const auto& e : result.best.edits)
        std::printf("  %-40s @ %s\n", e.toString().c_str(),
                    locateEdit(instance->module(), e).c_str());

    const auto heldOut = instance->validateBest(result.best.edits);
    std::printf("\nheld-out validation: %s\n",
                !heldOut           ? "none for this workload"
                : heldOut->empty() ? "passes"
                                   : heldOut->c_str());

    const auto golden = instance->goldenEdits();
    if (!golden.empty()) {
        // Score the golden edits through the same (possibly portfolio)
        // fitness the search used, so the ratio is like-for-like.
        const auto ceiling =
            core::evaluateVariant(instance->module(), golden, *fitness);
        if (ceiling.valid && ceiling.ms() > 0.0) {
            std::printf("golden-edit ceiling: %.3fx",
                        result.baselineMs / ceiling.ms());
            if (instance->paperCeiling() > 0.0)
                std::printf(" (paper: %.2fx)", instance->paperCeiling());
            std::printf("\n");
        } else {
            std::printf("golden-edit ceiling: INVALID (%s)\n",
                        ceiling.failReason.c_str());
        }
    }
    return 0;
}
