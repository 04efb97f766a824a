/// gevobench — the search benchmark.
///
///   gevobench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             [--search-seed <n>] [--data-seed <n>]
///   gevobench --self-test
///
/// --trace 0 repeats the workload's fixed-budget search as many times as
/// fill --seconds on the reference host (at least three) and reports the
/// end-to-end metrics as medians over them. --trace 1 alternates untraced
/// and decorated searches, then replays the search layer by layer, and
/// reports the per-layer metrics. Both pass the correctness gate first;
/// on a gate failure the benchmark exits 1 and prints no metrics. The
/// last stdout line is the JSON result. --seed chooses which generation
/// bests the gate re-scores under the reference oracles; the search and
/// dataset seeds that shape the trajectory are --search-seed and
/// --data-seed. See README.md.

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include <sys/resource.h>

#include "bench.h"
#include "mutation/edit.h"
#include "support/logging.h"
#include "support/rng.h"
#include "support/strings.h"

namespace gevobench {
namespace {

using gevo::core::FitnessResult;
using gevo::core::GenerationLog;

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::uint64_t searchSeed = 3;
    std::uint64_t dataSeed = 7;
    bool selfTest = false;
};

[[noreturn]] void
usage(const char* why)
{
    std::fprintf(stderr,
                 "gevobench: %s\nusage: gevobench --workload <name> --seed "
                 "<n> --seconds <s> --trace <0|1> [--search-seed <n>] "
                 "[--data-seed <n>]\n       gevobench --self-test\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseUint(const std::string& flag, const std::string& text)
{
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0' || errno != 0 || text[0] == '-')
        usage(("malformed value for " + flag + ": '" + text + "'").c_str());
    return v;
}

Options
parseOptions(int argc, char** argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--self-test") {
            o.selfTest = true;
            continue;
        }
        std::string value;
        const auto eq = flag.find('=');
        if (eq != std::string::npos) {
            value = flag.substr(eq + 1);
            flag = flag.substr(0, eq);
        } else if (i + 1 < argc) {
            value = argv[++i];
        } else {
            usage(("missing value for " + flag).c_str());
        }
        if (flag == "--workload") {
            o.workload = value;
        } else if (flag == "--seed") {
            o.seed = parseUint(flag, value);
        } else if (flag == "--seconds") {
            o.seconds = static_cast<double>(parseUint(flag, value));
        } else if (flag == "--trace") {
            const std::uint64_t trace = parseUint(flag, value);
            if (trace > 1)
                usage("--trace takes 0 or 1");
            o.trace = trace == 1;
        } else if (flag == "--search-seed") {
            o.searchSeed = parseUint(flag, value);
        } else if (flag == "--data-seed") {
            o.dataSeed = parseUint(flag, value);
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (!o.selfTest && o.workload.empty())
        usage("--workload is required");
    return o;
}

// ---- host drift probe ----

volatile std::uint64_t gProbeSink = 0;

/// A fixed loop that calls no program code: a dependent xorshift chain
/// driving read-modify-writes into a 4 MiB table, so the probe slows both
/// when the core does and when other tenants squeeze the shared caches.
/// Its time moves only with the host, so it shows drift between sets of
/// runs; it scales no metric. The table stays below every workload's own
/// peak RSS, so the probe does not set peak_rss_mb.
double
hostProbeMs()
{
    std::vector<std::uint64_t> table(std::size_t{1} << 19, 1);
    std::vector<double> times;
    for (int rep = 0; rep < 3; ++rep) {
        const auto start = Clock::now();
        std::uint64_t x = 0x2545f4914f6cdd1dULL + gProbeSink;
        for (int i = 0; i < (1 << 22); ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            table[x & (table.size() - 1)] += x;
        }
        gProbeSink = x + table[x & 1023];
        times.push_back(msBetween(start, Clock::now()));
    }
    return median(times);
}

// ---- process accounting ----

struct Usage {
    double cpuMs = 0.0; ///< User + sys of this process and reaped children.
    double peakRssMb = 0.0; ///< Larger of own and largest child's peak.
};

Usage
usageNow()
{
    rusage self{};
    rusage children{};
    ::getrusage(RUSAGE_SELF, &self);
    ::getrusage(RUSAGE_CHILDREN, &children);
    const auto ms = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) * 1e3 +
               static_cast<double>(tv.tv_usec) / 1e3;
    };
    Usage u;
    u.cpuMs = ms(self.ru_utime) + ms(self.ru_stime) + ms(children.ru_utime) +
              ms(children.ru_stime);
    u.peakRssMb =
        static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
        1024.0;
    return u;
}

// ---- reporting ----

struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::string note;
};

void
printResult(const std::vector<Metric>& metrics, std::size_t attempted,
            std::size_t failed)
{
    for (const Metric& m : metrics)
        std::printf("%-36s %14.6g %-6s %s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.note.c_str());
    std::string json = gevo::strformat(
        "{\"correct\": true, \"attempted\": %zu, \"failed\": %zu, "
        "\"metrics\": {",
        attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i)
        json += gevo::strformat("%s\"%s\": {\"value\": %.17g, \"unit\": "
                                "\"%s\"}",
                                i ? ", " : "", metrics[i].name.c_str(),
                                metrics[i].value, metrics[i].unit.c_str());
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

// ---- correctness gate ----

/// Fails the gate: reason to stderr, exit 1, no metrics.
[[noreturn]] void
gateFailure(const WorkloadSpec& spec, const std::string& why)
{
    std::fprintf(stderr, "gevobench: %s: correctness gate FAILED: %s\n",
                 spec.name.c_str(), why.c_str());
    std::exit(1);
}

bool
sameResult(const FitnessResult& a, const FitnessResult& b)
{
    if (a.valid != b.valid || a.objectives.size() != b.objectives.size())
        return false;
    for (std::size_t i = 0; i < a.objectives.size(); ++i) {
        if (!sameBits(a.objectives[i], b.objectives[i]))
            return false;
    }
    return true;
}

/// The checks every invocation makes on a finished search: the best
/// variant and two --seed-chosen generation bests re-score bit-identically
/// under the reference oracles; the twin workload reaches the same best
/// edit list; a durable search resumed and equals an uninterrupted one,
/// down to the per-generation cache counts (which only match when the
/// cache store was reloaded).
bool
checkSearch(const WorkloadSpec& spec, const SearchRun& run,
            std::uint64_t seed, const std::string& runDir, std::string* why)
{
    if (!resumedAsPlanned(spec, run, why))
        return false;
    const auto instance = buildInstance(spec);
    const auto& result = run.result;
    if (!sameResult(referenceScore(*instance, result.best.edits),
                    result.best.fitness)) {
        *why = "best variant re-scores differently under the reference "
               "oracles";
        return false;
    }
    gevo::Rng rng(seed);
    for (int k = 0; k < 2 && !result.history.empty(); ++k) {
        const GenerationLog& log =
            result.history[rng.below(result.history.size())];
        if (!sameBits(referenceScore(*instance, log.bestEdits).ms(),
                      log.bestMs)) {
            *why = gevo::strformat("generation %u best re-scores "
                                   "differently under the reference oracles",
                                   log.generation);
            return false;
        }
    }
    if (spec.twinThreads != 0) {
        WorkloadSpec twin = spec;
        twin.params.threads = spec.twinThreads;
        const SearchRun other = runSearch(twin, runDir, nullptr);
        if (!sameSearch(other.result, result, why)) {
            *why = gevo::strformat("the search at %u thread(s) reached "
                                   "another trajectory: ",
                                   spec.twinThreads) +
                   *why;
            return false;
        }
    }
    if (spec.durable) {
        WorkloadSpec straight = spec;
        straight.durable = false;
        const SearchRun other = runSearch(straight, runDir, nullptr);
        if (!sameSearch(other.result, result, why)) {
            *why = "resumed search differs from an uninterrupted one: " + *why;
            return false;
        }
        for (std::size_t i = 0; i < result.history.size(); ++i) {
            const GenerationLog& p = result.history[i];
            const GenerationLog& q = other.result.history[i];
            if (p.cacheMisses != q.cacheMisses || p.cacheHits != q.cacheHits) {
                *why = gevo::strformat(
                    "generation %u: %zu cache misses / %zu hits resumed, "
                    "%zu / %zu uninterrupted (cache store not reloaded)",
                    p.generation, p.cacheMisses, p.cacheHits, q.cacheMisses,
                    q.cacheHits);
                return false;
            }
        }
    }
    return true;
}

/// Searches that fill \p seconds on the reference host. The count depends
/// only on --seconds, so a run does the same work on a fast host as on a
/// slow one, and counts such as peak_rss_mb cannot drift with host speed.
std::size_t
searchesFor(const WorkloadSpec& spec, double seconds)
{
    return static_cast<std::size_t>(std::lround(seconds / spec.nominalSearchS));
}

/// Set-up samples a timed run takes at least. Each search gives one;
/// plain workloads top up with set-up-only searches (the same search
/// stopped after generation 1), run between the searches so they see the
/// same host. A durable search's set-up spans both halves and cannot be
/// taken alone; its nominal search time is short enough that a run holds
/// many searches.
constexpr std::size_t kSetupSamples = 31;

double
setupOnce(const WorkloadSpec& spec, const std::string& runDir)
{
    WorkloadSpec first = spec;
    first.params.generations = 1;
    return runSearch(first, runDir, nullptr).setupS;
}

double
variantsPerS(const SearchRun& run)
{
    return static_cast<double>(run.loopIndividuals) / run.loopS;
}

// ---- timed run (--trace 0) ----

int
timedRun(const WorkloadSpec& spec, const Options& o, const std::string& runDir)
{
    const double probeBefore = hostProbeMs();
    std::vector<SearchRun> runs;
    std::vector<double> setup;
    double cpuMs = 0.0;
    const std::size_t count =
        std::max<std::size_t>(3, searchesFor(spec, o.seconds));
    const std::size_t extraSetups =
        spec.durable ? 0 : (kSetupSamples + count - 1) / count - 1;
    while (runs.size() < count) {
        const double cpuBefore = usageNow().cpuMs;
        runs.push_back(runSearch(spec, runDir, nullptr));
        cpuMs += usageNow().cpuMs - cpuBefore;
        setup.push_back(runs.back().setupS);
        for (std::size_t k = 0; k < extraSetups; ++k)
            setup.push_back(setupOnce(spec, runDir));
    }
    const Usage after = usageNow();

    std::string why;
    for (const SearchRun& run : runs) {
        if (!sameSearch(run.result, runs[0].result, &why))
            gateFailure(spec, "repeated searches diverged: " + why);
        if (!resumedAsPlanned(spec, run, &why))
            gateFailure(spec, why);
    }
    if (!checkSearch(spec, runs[0], o.seed, runDir, &why))
        gateFailure(spec, why);
    const double probeAfter = hostProbeMs();

    std::vector<double> vps, genMs;
    std::size_t individuals = 0, requests = 0, failures = 0;
    for (const SearchRun& run : runs) {
        vps.push_back(variantsPerS(run));
        genMs.insert(genMs.end(), run.genMs.begin(), run.genMs.end());
        individuals += static_cast<std::size_t>(spec.params.populationSize) *
                       spec.params.generations;
        requests += run.requests;
        failures += run.failures;
    }
    const double p90 = percentile(genMs, 90.0);
    std::size_t above = 0;
    for (const double g : genMs)
        above += g > p90 ? 1 : 0;
    const std::string searches =
        gevo::strformat("median of %zu searches", runs.size());
    const std::string gens = gevo::strformat(
        "%zu generation samples, %zu above p90", genMs.size(), above);
    std::printf("gevobench %s: %s, pop %u x %u gens, %u thread(s), search "
                "seed %llu, data seed %llu\n",
                spec.name.c_str(), spec.app.c_str(),
                spec.params.populationSize, spec.params.generations,
                spec.params.threads,
                static_cast<unsigned long long>(spec.params.seed),
                static_cast<unsigned long long>(o.dataSeed));
    std::printf("host.probe_ms before %.3f after %.3f\n", probeBefore,
                probeAfter);
    std::printf("variants_per_s per search:");
    for (const double v : vps)
        std::printf(" %.1f", v);
    std::printf("\nsetup_s per set-up:");
    for (const double v : setup)
        std::printf(" %.4f", v);
    std::printf("\n");
    const double failedFrac =
        requests ? static_cast<double>(failures) / static_cast<double>(requests)
                 : 0.0;
    std::printf("failed_frac %.6g (%zu of %zu requests)\n", failedFrac,
                failures, requests);
    const std::vector<Metric> metrics = {
        {"variants_per_s", median(vps), "1/s", searches},
        {"gen_ms_p50", median(genMs), "ms", gens},
        {"gen_ms_p90", p90, "ms", gens},
        {"setup_s", median(setup), "s",
         gevo::strformat("median of %zu set-ups", setup.size())},
        {"best_speedup", runs[0].result.speedup(), "x", "exact per seed"},
        {"cpu_ms_per_variant",
         cpuMs / static_cast<double>(individuals), "ms",
         gevo::strformat("%zu individuals, children included", individuals)},
        {"peak_rss_mb", after.peakRssMb, "MB", "own or largest child"},
        {"eval_ok_frac", 1.0 - failedFrac, "ratio", "1 - failed_frac"},
    };
    printResult(metrics, requests, failures);
    return 0;
}

// ---- traced run (--trace 1) ----

struct Traced {
    SearchRun untraced; ///< The last untraced search.
    SearchRun traced;   ///< The last decorated search (its spans are kept).
    std::vector<double> untracedVps;
    std::vector<double> tracedVps;
    ReplayResult replay;
    std::vector<Span> spans;
};

/// Alternating untraced and decorated searches (half as many pairs as a
/// timed run of \p seconds has searches, at least one), then the replay;
/// checks that the decorator and the replay are neutral.
bool
tracedSearch(const WorkloadSpec& spec, const std::string& runDir,
             double seconds, Traced* out, std::string* why)
{
    SpanLog log(std::size_t{1} << 18);
    const std::size_t pairs =
        std::max<std::size_t>(1, searchesFor(spec, seconds) / 2);
    while (out->tracedVps.size() < pairs) {
        out->untraced = runSearch(spec, runDir, nullptr);
        out->untracedVps.push_back(variantsPerS(out->untraced));
        log.clear();
        out->traced = runSearch(spec, runDir, &log);
        out->tracedVps.push_back(variantsPerS(out->traced));
        if (!sameSearch(out->traced.result, out->untraced.result, why)) {
            *why = "timing decorator moved the trajectory: " + *why;
            return false;
        }
    }
    const auto& history = out->traced.result.history;
    {
        const auto instance = buildInstance(spec);
        const FarmWorker farm(*instance, runDir);
        out->replay = replaySearch(spec, *instance, history, runDir,
                                   farm.spec(), log);
    }
    const auto& bestMs = out->replay.bestMs;
    if (bestMs.size() != history.size()) {
        *why = "replay ran another number of generations";
        return false;
    }
    for (std::size_t g = 0; g < history.size(); ++g) {
        if (!sameBits(bestMs[g], history[g].bestMs)) {
            *why = gevo::strformat("replay bestMs differs at generation %zu",
                                   g + 1);
            return false;
        }
    }
    if (out->replay.bestEdits != out->traced.result.best.edits) {
        *why = "replay best edit list differs";
        return false;
    }
    if (log.dropped() != 0) {
        *why = gevo::strformat("span log overflowed (%llu dropped)",
                               static_cast<unsigned long long>(log.dropped()));
        return false;
    }
    out->spans = log.collect();
    return true;
}

int
traceRun(const WorkloadSpec& spec, const Options& o, const std::string& runDir)
{
    const double probeBefore = hostProbeMs();
    Traced t;
    std::string why;
    if (!tracedSearch(spec, runDir, o.seconds, &t, &why) ||
        !checkSearch(spec, t.untraced, o.seed, runDir, &why))
        gateFailure(spec, why);
    const double probeAfter = hostProbeMs();
    const std::string spanPath = runDir + "/spans.tsv";
    writeSpans(spanPath, t.spans);

    std::map<SpanKind, std::vector<double>> us;
    for (const Span& s : t.spans)
        us[s.kind].push_back(static_cast<double>(s.endNs - s.startNs) / 1e3);
    const auto meanUs = [&](SpanKind k) { return mean(us[k]); };
    std::vector<double> evalMs;
    double evalUs = 0.0;
    for (const double v : us[SpanKind::Evaluate]) {
        evalMs.push_back(v / 1e3);
        evalUs += v;
    }
    double genUs = 0.0;
    for (const double v : us[SpanKind::EngineGeneration])
        genUs += v;
    std::vector<double> otherMs;
    for (const auto& [gen, ms] :
         generationSelfMs(t.spans, SpanKind::EngineGeneration))
        otherMs.push_back(ms);
    const auto overheadMs = [&](SpanKind k) {
        std::vector<double> extra;
        for (const Span& s : t.spans) {
            if (s.kind == k)
                extra.push_back(static_cast<double>(s.endNs - s.startNs) / 1e6 -
                                t.replay.taskNsByGen[s.gen] / 1e6);
        }
        return mean(extra);
    };

    const ReplayResult& r = t.replay;
    const auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    const double gens = static_cast<double>(spec.params.generations);
    const double threads = std::max(1u, spec.params.threads);
    const double untracedVps = median(t.untracedVps);
    const auto engineMisses = static_cast<double>(t.untraced.misses);
    const std::vector<Metric> metrics = {
        {"mutation.breed_us",
         meanUs(SpanKind::Breed) / spec.params.populationSize, "us",
         "Population::breedNext per individual"},
        {"mutation.patch_us", meanUs(SpanKind::Patch), "us", "mut::applyPatch"},
        {"mutation.edits_mean", ratio(r.editsTotal, r.requests), "count",
         "edits per scored individual"},
        {"opt.cleanup_us", meanUs(SpanKind::Cleanup), "us",
         "opt::runCleanupPipeline, touched functions"},
        {"ir.verify_us", meanUs(SpanKind::Verify), "us",
         "ir::verifyFunction, touched functions"},
        {"sim.decode_us", meanUs(SpanKind::Decode), "us",
         "sim::Program::decode, touched functions"},
        {"sim.warp_instrs", ratio(r.warpInstrs, r.profiled), "count",
         "per evaluation"},
        {"sim.global_sectors", ratio(r.globalSectors, r.profiled), "count",
         "per evaluation"},
        {"sim.divergences", ratio(r.divergences, r.profiled), "count",
         "per evaluation"},
        {"sim.ns_per_warp_instr", ratio(r.profiledEvalNs, r.warpInstrs), "ns",
         "evaluate time / warp instructions"},
        {"apps.eval_ms_p50", median(evalMs), "ms", "FitnessFunction::evaluate"},
        {"apps.eval_ms_p90", percentile(evalMs, 90.0), "ms",
         gevo::strformat("%zu samples", evalMs.size())},
        {"apps.evals", static_cast<double>(evalMs.size()), "count",
         "evaluate calls in the decorated search"},
        {"apps.invalid_frac", ratio(r.invalid, r.evaluations), "ratio",
         "failed their tests"},
        {"core.compile.us_p50", median(us[SpanKind::Compile]), "us",
         "VariantCompiler::compile"},
        {"core.compile.reject_frac", ratio(r.rejected, r.compiled), "ratio",
         "verifier rejections"},
        {"core.cache.key_us", meanUs(SpanKind::CacheKey), "us",
         "keyOf + hashKey"},
        {"core.cache.hit_frac", 1.0 - ratio(r.misses, r.requests), "ratio",
         "requests served from a cache level"},
        {"core.cache.misses", static_cast<double>(r.misses), "count",
         "exact, one trajectory, serial"},
        {"core.cache.dup_sims", engineMisses - static_cast<double>(r.misses),
         "count", "engine misses beyond the serial count"},
        {"core.cache.program_key_kb", ratio(r.programKeyBytes, r.programKeys) / 1024.0,
         "KB", "ProgramSet::contentKey size"},
        {"core.pool.busy_frac", ratio(evalUs, threads * genUs), "ratio",
         "evaluate time / (threads x search wall)"},
        {"core.pool.unique_per_gen", static_cast<double>(r.misses) / gens,
         "count",
         gevo::strformat("programs simulated per generation (%.2f distinct "
                         "edit lists sent)",
                         static_cast<double>(r.unique) / gens)},
        {"core.backend.dispatch_ms.inprocess",
         overheadMs(SpanKind::DispatchInProcess), "ms",
         "evaluateBatch beyond its tasks, 1 thread"},
        {"core.backend.dispatch_ms.isolated",
         overheadMs(SpanKind::DispatchIsolated), "ms",
         "evaluateBatch beyond its tasks, 1 worker"},
        {"core.backend.failures",
         static_cast<double>(t.untraced.failures + t.traced.failures +
                             r.backendFailures),
         "count", "EvalFailures"},
        {"core.select.sort_us", meanUs(SpanKind::Sort), "us",
         "Population::sortByFitness"},
        {"core.engine.other_ms", median(otherMs), "ms",
         "generation wall minus evaluate time"},
        {"core.checkpoint.save_ms", meanUs(SpanKind::CheckpointSave) / 1e3, "ms",
         ""},
        {"core.checkpoint.load_ms", meanUs(SpanKind::CheckpointLoad) / 1e3, "ms",
         ""},
        {"core.checkpoint.kb", r.checkpointKb, "KB", "final generation"},
        {"core.cache_store.save_ms", meanUs(SpanKind::CacheStoreSave) / 1e3,
         "ms", ""},
        {"core.cache_store.load_ms", meanUs(SpanKind::CacheStoreLoad) / 1e3,
         "ms", ""},
        {"core.cache_store.kb", r.cacheStoreKb, "KB", "final generation"},
        {"core.cache_store.entries", r.cacheStoreEntries, "count",
         "final generation"},
        {"farm.codec_us", meanUs(SpanKind::FarmCodec), "us",
         "request + reply encode and decode"},
        {"farm.rtt_ms", meanUs(SpanKind::FarmRtt) / 1e3, "ms",
         "one generation's batch, one loopback worker"},
        {"host.probe_ms", (probeBefore + probeAfter) / 2.0, "ms",
         gevo::strformat("before %.3f after %.3f", probeBefore, probeAfter)},
        {"trace.overhead_frac",
         ratio(untracedVps - median(t.tracedVps), untracedVps), "ratio",
         gevo::strformat("variants/s lost to the decorator, median of %zu "
                         "pairs",
                         t.tracedVps.size())},
    };
    std::printf("gevobench %s traced run: %zu spans in %s\n",
                spec.name.c_str(), t.spans.size(), spanPath.c_str());
    if (spec.durable) {
        // Where a durable generation's time goes: the engine's time
        // outside evaluate (its generation spans' self time), and the
        // replay's estimate of the durable-state writes and the backend
        // dispatch inside it. Starting generations carry a build and are
        // left out.
        std::vector<double> selfMs;
        for (const auto& [gen, ms] :
             generationSelfMs(t.spans, SpanKind::EngineGeneration)) {
            if (std::find(t.traced.startGens.begin(), t.traced.startGens.end(),
                          gen) == t.traced.startGens.end())
                selfMs.push_back(ms);
        }
        const double genMean = mean(t.traced.genMs);
        const double ckpt = meanUs(SpanKind::CheckpointSave) / 1e3;
        const double store = meanUs(SpanKind::CacheStoreSave) / 1e3 /
                             static_cast<double>(kCacheStoreInterval);
        const double dispatch =
            overheadMs(spec.params.backend ==
                               gevo::core::EvalBackendKind::Isolated
                           ? SpanKind::DispatchIsolated
                           : SpanKind::DispatchInProcess);
        std::printf("generation mean %.3f ms: outside evaluate %.3f ms "
                    "(%.0f%%); of it checkpoint save %.3f + cache-store save "
                    "%.3f + dispatch %.3f ms = %.0f%% of the mean\n",
                    genMean, mean(selfMs), 100.0 * ratio(mean(selfMs), genMean),
                    ckpt, store, dispatch,
                    100.0 * ratio(ckpt + store + dispatch, genMean));
    }
    printResult(metrics, t.untraced.requests + t.traced.requests,
                t.untraced.failures + t.traced.failures);
    return 0;
}

// ---- self-test ----

/// Every workload at a tiny budget: decorator and replay neutral, gate
/// passing.
int
selfTest(const Options& o)
{
    int failures = 0;
    for (const std::string& name : workloadNames()) {
        WorkloadSpec spec = findWorkload(name, o.searchSeed, o.dataSeed);
        spec.params.populationSize = 8;
        spec.params.generations = 6;
        const std::string runDir = ".bench_run/selftest-" + name;
        std::filesystem::create_directories(runDir);
        Traced t;
        std::string why;
        const bool ok = tracedSearch(spec, runDir, 0.0, &t, &why) &&
                        checkSearch(spec, t.untraced, o.seed, runDir, &why);
        std::printf("self-test %-16s %s%s\n", name.c_str(),
                    ok ? "ok" : "FAILED: ", ok ? "" : why.c_str());
        failures += ok ? 0 : 1;
        std::filesystem::remove_all(runDir);
    }
    return failures == 0 ? 0 : 1;
}

} // namespace
} // namespace gevobench

int
main(int argc, char** argv)
{
    using namespace gevobench;
    const Options o = parseOptions(argc, argv);
    if (o.selfTest)
        return selfTest(o);
    const WorkloadSpec spec = findWorkload(o.workload, o.searchSeed, o.dataSeed);
    const std::string runDir = ".bench_run/" + spec.name;
    std::filesystem::create_directories(runDir);
    const int rc = o.trace ? traceRun(spec, o, runDir)
                           : timedRun(spec, o, runDir);
    for (const char* file : {"search.ckpt", "search.gevocache"})
        std::filesystem::remove(runDir + "/" + file);
    return rc;
}
