#include <csignal>
#include <cstring>
#include <filesystem>

#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench.h"
#include "farm/server.h"
#include "sim/executor.h"
#include "support/logging.h"
#include "support/strings.h"

namespace gevobench {

using gevo::core::EvolutionEngine;
using gevo::core::EvolutionParams;
using gevo::core::FitnessFunction;
using gevo::core::FitnessResult;
using gevo::core::GenerationLog;
using gevo::core::SearchResult;

namespace {

/// Generations the first, cold half of a durable search runs.
std::uint32_t
durableHalf(const WorkloadSpec& spec)
{
    return spec.params.generations / 2;
}

/// One engine run (a whole search, or one half of a durable one), built
/// from scratch the way a fresh process would: instance, engine, run.
void
runEngine(const WorkloadSpec& spec, const EvolutionParams& params,
          std::uint32_t firstGen, SpanLog* spans, SearchRun* out)
{
    const auto start = Clock::now();
    const auto instance = buildInstance(spec);
    std::unique_ptr<TimingFitness> timed;
    const FitnessFunction* fitness = &instance->fitness();
    if (spans != nullptr) {
        timed = std::make_unique<TimingFitness>(*fitness, *spans);
        fitness = timed.get();
    }
    EvolutionEngine engine(instance->module(), *fitness, params);

    Clock::time_point prev = start;
    Clock::time_point first{};
    std::size_t generations = 0;
    setTraceGeneration(firstGen);
    SearchResult result =
        engine.run([&](const GenerationLog& log, const SearchResult&) {
            const auto now = Clock::now();
            if (spans != nullptr)
                spans->record(SpanKind::EngineGeneration, prev, now,
                              log.generation);
            if (generations++ == 0) {
                first = now;
                out->startGens.push_back(log.generation);
            } else {
                out->genMs.push_back(msBetween(prev, now));
            }
            prev = now;
            setTraceGeneration(log.generation + 1);
        });
    const auto end = Clock::now();
    if (generations == 0)
        GEVO_FATAL("%s: search ran no generation", spec.name.c_str());

    out->setupS += msBetween(start, first) / 1e3;
    out->loopS += msBetween(first, end) / 1e3;
    out->loopIndividuals += params.populationSize * (generations - 1);
    for (const GenerationLog& log : result.history) {
        if (log.generation < firstGen)
            continue; // Restored from the checkpoint, not run here.
        out->requests += log.evaluations;
        out->misses += log.cacheMisses;
        out->failures +=
            log.workerCrashes + log.workerTimeouts + log.protocolErrors;
    }
    out->result = std::move(result);
}

} // namespace

SearchRun
runSearch(const WorkloadSpec& spec, const std::string& runDir, SpanLog* spans)
{
    SearchRun run;
    if (!spec.durable) {
        runEngine(spec, spec.params, 1, spans, &run);
        return run;
    }
    EvolutionParams params = spec.params;
    params.checkpointPath = runDir + "/search.ckpt";
    params.checkpointInterval = 1;
    params.cachePath = runDir + "/search.gevocache";
    params.cacheSaveInterval = kCacheStoreInterval;
    std::filesystem::remove(params.checkpointPath);
    std::filesystem::remove(params.cachePath);

    const std::uint32_t half = durableHalf(spec);
    EvolutionParams cold = params;
    cold.generations = half;
    runEngine(spec, cold, 1, spans, &run);

    EvolutionParams resumed = params;
    resumed.resume = true;
    runEngine(spec, resumed, half + 1, spans, &run);
    return run;
}

bool
resumedAsPlanned(const WorkloadSpec& spec, const SearchRun& run,
                 std::string* why)
{
    const std::vector<std::uint32_t> planned =
        spec.durable ? std::vector<std::uint32_t>{1, durableHalf(spec) + 1}
                     : std::vector<std::uint32_t>{1};
    if (run.startGens == planned)
        return true;
    *why = "the search did not resume from its checkpoint: engine runs "
           "started at generation";
    for (const std::uint32_t g : run.startGens)
        *why += gevo::strformat(" %u", g);
    return false;
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool
sameSearch(const SearchResult& x, const SearchResult& y, std::string* why)
{
    const auto& a = x.history;
    const auto& b = y.history;
    if (a.size() != b.size()) {
        *why = gevo::strformat("%zu vs %zu generations", a.size(), b.size());
        return false;
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
        const GenerationLog& p = a[i];
        const GenerationLog& q = b[i];
        const char* field = nullptr;
        if (p.generation != q.generation)
            field = "generation";
        else if (!sameBits(p.bestMs, q.bestMs))
            field = "bestMs";
        else if (!sameBits(p.meanMs, q.meanMs))
            field = "meanMs";
        else if (p.validCount != q.validCount)
            field = "validCount";
        else if (p.evaluations != q.evaluations)
            field = "evaluations";
        else if (p.bestEdits != q.bestEdits)
            field = "bestEdits";
        if (field != nullptr) {
            *why = gevo::strformat("generation %u differs in %s",
                                   a[i].generation, field);
            return false;
        }
    }
    if (x.best.edits != y.best.edits) {
        *why = "best edit lists differ";
        return false;
    }
    return true;
}

FitnessResult
referenceScore(const gevo::core::WorkloadInstance& instance,
               const std::vector<gevo::mut::Edit>& edits)
{
    using namespace gevo;
    const core::CompileMode compileMode = core::compileMode();
    const sim::InterpMode interpMode = sim::interpreterMode();
    const bool dense = sim::denseLaneMode();
    core::setCompileMode(core::CompileMode::Reference);
    sim::setInterpreterMode(sim::InterpMode::Reference);
    sim::setDenseLaneMode(false);
    const core::VariantCompiler compiler(instance.module());
    const core::CompiledVariant cv = compiler.compile(edits);
    FitnessResult result = cv.ok ? instance.fitness().evaluate(cv)
                                 : FitnessResult::fail(cv.failReason);
    core::setCompileMode(compileMode);
    sim::setInterpreterMode(interpMode);
    sim::setDenseLaneMode(dense);
    return result;
}

FarmWorker::FarmWorker(const gevo::core::WorkloadInstance& instance,
                       const std::string& runDir)
    : socketPath_(runDir + "/farm.sock"), readyPath_(runDir + "/farm.ready")
{
    std::filesystem::remove(socketPath_);
    std::filesystem::remove(readyPath_);
    const pid_t parent = ::getpid();
    pid_ = ::fork();
    if (pid_ < 0)
        GEVO_FATAL("fork for the loopback farm worker failed");
    if (pid_ == 0) {
        // Die with the benchmark even when it exits without unwinding
        // (a fatal error), so no daemon outlives a run.
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (::getppid() != parent)
            std::_Exit(1);
        ::setpgid(0, 0);
        gevo::farm::ServerOptions opts;
        opts.listenSpec = spec();
        opts.readyFile = readyPath_;
        opts.banner = "gevobench loopback";
        std::_Exit(gevo::farm::runWorkerServer(instance.module(),
                                               instance.fitness(), opts));
    }
    ::setpgid(pid_, pid_);
    for (int i = 0; i < 1500 && ::access(readyPath_.c_str(), F_OK) != 0; ++i)
        ::usleep(10 * 1000);
    if (::access(readyPath_.c_str(), F_OK) != 0)
        GEVO_FATAL("loopback farm worker never came up on %s",
                   socketPath_.c_str());
}

FarmWorker::~FarmWorker()
{
    // SIGTERM lets the daemon kill and reap its sessions and unlink its
    // socket; SIGKILL on the whole group is the fallback.
    ::kill(pid_, SIGTERM);
    for (int i = 0; i < 500; ++i) {
        if (::waitpid(pid_, nullptr, WNOHANG) == pid_)
            return;
        ::usleep(10 * 1000);
    }
    ::kill(-pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    std::filesystem::remove(socketPath_);
    std::filesystem::remove(readyPath_);
}

} // namespace gevobench
