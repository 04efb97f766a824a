/// The replay: the engine's single-island loop rebuilt from the public
/// layer calls (Population seed/sort/breed, the edit-list and program
/// caches, the compile pipeline stage by stage, the backends, the
/// checkpoint and cache-store codecs, the farm protocol), so each layer
/// can be timed on exactly the traffic the engine produced. It must
/// reproduce GenerationLog::bestMs at every generation; the caller checks.

#include <filesystem>
#include <unordered_map>
#include <utility>

#include "bench.h"
#include "core/cache_store.h"
#include "core/checkpoint.h"
#include "core/eval_backend.h"
#include "core/population.h"
#include "core/variant_cache.h"
#include "farm/protocol.h"
#include "ir/verifier.h"
#include "mutation/patch.h"
#include "opt/passes.h"
#include "sim/program.h"
#include "support/logging.h"

namespace gevobench {

using namespace gevo;
using core::EvalOutcome;
using core::FitnessResult;
using core::Individual;
using core::VariantCache;

namespace {

/// Times \p fn into a span of \p kind; returns the elapsed nanoseconds.
template <typename Fn>
double
timed(SpanLog& spans, SpanKind kind, std::uint32_t gen, std::uint64_t id,
      Fn&& fn)
{
    const auto start = Clock::now();
    fn();
    const auto end = Clock::now();
    spans.record(kind, start, end, gen, id);
    return msBetween(start, end) * 1e6;
}

double
fileKb(const std::string& path)
{
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    return ec ? 0.0 : static_cast<double>(size) / 1024.0;
}

} // namespace

ReplayResult
replaySearch(const WorkloadSpec& spec, const core::WorkloadInstance& instance,
             const std::vector<core::GenerationLog>& history,
             const std::string& runDir, const std::string& farmSpec,
             SpanLog& spans)
{
    const ir::Module& base = instance.module();
    const core::FitnessFunction& fitness = instance.fitness();
    const core::EvolutionParams params = spec.params;
    ReplayResult out;

    // Baseline and cache seeding, as EvolutionEngine::run does.
    const core::VariantCompiler compiler(base);
    const core::CompiledVariant baselineCv = core::compileVariant(base, {});
    const FitnessResult baseline = fitness.evaluate(baselineCv);
    Individual best;
    best.fitness = baseline;
    best.evaluated = true;
    std::unordered_map<std::string, FitnessResult> editCache;
    VariantCache programCache;
    editCache[VariantCache::keyOf({})] = baseline;
    programCache.insert(baselineCv.programs.contentKey(), baseline);

    core::EvolutionParams one = params;
    one.threads = 1;
    one.backend = core::EvalBackendKind::InProcess;
    const auto inProcess = core::makeBackend(base, fitness, one);
    one.backend = core::EvalBackendKind::Isolated;
    const auto isolated = core::makeBackend(base, fitness, one);
    one.backend = core::EvalBackendKind::Remote;
    one.workers = farmSpec;
    const auto remote = core::makeBackend(base, fitness, one);

    const std::string checkpointPath = runDir + "/replay.ckpt";
    const std::string cachePath = runDir + "/replay.gevocache";
    std::filesystem::remove(checkpointPath);
    std::filesystem::remove(cachePath);

    core::Population pop(base, params);
    Rng rng(params.seed);
    pop.seed(rng);
    for (std::uint32_t gen = 1; gen <= params.generations; ++gen) {
        const auto genStart = Clock::now();

        // Key and deduplicate the unevaluated members; serve the
        // edit-list cache.
        std::vector<Individual*> todo;
        for (auto& ind : pop.members()) {
            if (!ind.evaluated)
                todo.push_back(&ind);
        }
        std::vector<std::string> keys(todo.size());
        std::vector<std::uint64_t> ids(todo.size());
        std::unordered_map<std::string, std::size_t> firstOf;
        std::vector<std::size_t> missing;
        for (std::size_t i = 0; i < todo.size(); ++i) {
            timed(spans, SpanKind::CacheKey, gen, 0, [&] {
                keys[i] = VariantCache::keyOf(todo[i]->edits);
                ids[i] = VariantCache::hashKey(keys[i]);
            });
            out.editsTotal += static_cast<double>(todo[i]->edits.size());
            if (!firstOf.try_emplace(keys[i], i).second)
                continue;
            if (editCache.count(keys[i]) == 0)
                missing.push_back(i);
        }
        out.requests += todo.size();
        out.unique += missing.size();

        // The pipeline, layer by layer, for each distinct miss.
        std::vector<const std::vector<mut::Edit>*> batch;
        double taskNs = 0.0;
        for (const std::size_t i : missing) {
            const auto& edits = todo[i]->edits;
            const std::uint64_t id = ids[i];
            batch.push_back(&edits);

            // The stages of VariantCompiler's incremental path, the one
            // the program runs: patch, then verify, clean up, re-verify
            // and decode only the functions the patch touched (those no
            // longer shared with the base).
            ir::Module patched;
            timed(spans, SpanKind::Patch, gen, id,
                  [&] { patched = mut::applyPatch(base, edits); });
            std::vector<std::size_t> touched;
            for (std::size_t f = 0; f < patched.numFunctions(); ++f) {
                if (patched.functionPtr(f) != base.functionPtr(f))
                    touched.push_back(f);
            }
            const auto verifyTouched = [&] {
                bool ok = true;
                timed(spans, SpanKind::Verify, gen, id, [&] {
                    for (const std::size_t f : touched)
                        ok &= ir::verifyFunction(
                                  std::as_const(patched).function(f))
                                  .ok();
                });
                return ok;
            };
            if (verifyTouched()) {
                timed(spans, SpanKind::Cleanup, gen, id, [&] {
                    for (const std::size_t f : touched)
                        opt::runCleanupPipeline(patched.function(f));
                });
                if (verifyTouched()) {
                    timed(spans, SpanKind::Decode, gen, id, [&] {
                        for (const std::size_t f : touched)
                            (void)sim::Program::decode(
                                std::as_const(patched).function(f));
                    });
                }
            }

            core::CompiledVariant cv;
            taskNs += timed(spans, SpanKind::Compile, gen, id,
                            [&] { cv = compiler.compile(edits); });
            ++out.compiled;
            FitnessResult result;
            if (!cv.ok) {
                ++out.rejected;
                ++out.misses;
                result = FitnessResult::fail(cv.failReason);
            } else {
                std::string programKey;
                taskNs += timed(spans, SpanKind::ProgramKey, gen, id, [&] {
                    programKey = cv.programs.contentKey();
                });
                out.programKeyBytes += static_cast<double>(programKey.size());
                ++out.programKeys;
                if (!programCache.lookup(programKey, &result)) {
                    const double evalNs =
                        timed(spans, SpanKind::ReplayEvaluate, gen, id,
                              [&] { result = fitness.evaluate(cv); });
                    programCache.insert(programKey, result);
                    ++out.misses;
                    ++out.evaluations;
                    if (!result.valid)
                        ++out.invalid;
                    core::ProfileSummary profile;
                    bool profiled = false;
                    timed(spans, SpanKind::ReplayProfile, gen, id, [&] {
                        profiled = fitness.profileVariant(cv, &profile);
                    });
                    if (profiled) {
                        ++out.profiled;
                        out.profiledEvalNs += evalNs;
                        out.warpInstrs += static_cast<double>(profile.warpInstrs);
                        out.globalSectors +=
                            static_cast<double>(profile.globalSectors);
                        out.divergences += static_cast<double>(profile.divergences);
                    }
                }
            }
            editCache[keys[i]] = result;
        }
        for (std::size_t i = 0; i < todo.size(); ++i) {
            todo[i]->fitness = editCache.at(keys[i]);
            todo[i]->evaluated = true;
        }

        // The same batch through each backend (every program is cached by
        // now, so a task is a compile plus a lookup), the farm codec and
        // one loopback farm round trip.
        if (!batch.empty()) {
            std::vector<EvalOutcome> outcomes;
            const auto dispatch = [&](SpanKind kind,
                                      core::EvaluationBackend& backend) {
                timed(spans, kind, gen, 0, [&] {
                    backend.evaluateBatch(batch, &programCache, &outcomes);
                });
                for (const auto& o : outcomes)
                    out.backendFailures +=
                        o.failure != core::EvalFailure::None ? 1 : 0;
            };
            dispatch(SpanKind::DispatchInProcess, *inProcess);
            dispatch(SpanKind::DispatchIsolated, *isolated);
            for (std::size_t k = 0; k < batch.size(); ++k) {
                timed(spans, SpanKind::FarmCodec, gen, 0, [&] {
                    farm::EvalRequest req;
                    req.seq = k;
                    req.useCache = true;
                    req.edits = *batch[k];
                    farm::EvalRequest reqBack;
                    farm::EvalReply reply;
                    reply.seq = k;
                    reply.outcome = outcomes[k];
                    farm::EvalReply replyBack;
                    if (!farm::decodeEvalRequest(farm::encodeEvalRequest(req),
                                                 &reqBack) ||
                        !farm::decodeEvalReply(farm::encodeEvalReply(reply),
                                               &replyBack))
                        ++out.backendFailures;
                });
            }
            dispatch(SpanKind::FarmRtt, *remote);
            out.taskNsByGen[gen] = taskNs;
        }

        timed(spans, SpanKind::Sort, gen, 0, [&] { pop.sortByFitness(); });
        for (const auto& ind : pop.members()) {
            if (ind.fitness.valid &&
                FitnessResult::better(ind.fitness, best.fitness))
                best = ind;
        }
        out.bestMs.push_back(best.fitness.ms());

        timed(spans, SpanKind::Breed, gen, 0, [&] { pop.breedNext(rng); });

        // Durable state after the breed, as reduce-durable writes it: the
        // checkpoint every generation and both cache levels every
        // kCacheStoreInterval, each saved and loaded back.
        core::CheckpointState state;
        state.generation = gen;
        state.baselineMs = baseline.ms();
        state.best = best;
        state.history.assign(history.begin(),
                             history.begin() +
                                 std::min<std::size_t>(gen, history.size()));
        core::CheckpointIsland island;
        island.rngState = rng.state();
        island.bestMs = best.fitness.ms();
        island.members = pop.members();
        island.rates = params.sampler;
        island.candidateRates = params.sampler;
        state.islands.push_back(std::move(island));
        bool durableOk = true;
        timed(spans, SpanKind::CheckpointSave, gen, 0, [&] {
            durableOk &= core::saveCheckpoint(checkpointPath, 1, state);
        });
        timed(spans, SpanKind::CheckpointLoad, gen, 0, [&] {
            durableOk &= core::loadCheckpoint(checkpointPath, 1).usable();
        });
        if (gen % kCacheStoreInterval == 0 || gen == params.generations) {
            std::vector<core::CacheStoreRecord> records;
            for (const auto& [key, result] : editCache)
                records.push_back({0, key, result});
            for (auto& [key, result] : programCache.snapshot())
                records.push_back({1, std::move(key), result});
            timed(spans, SpanKind::CacheStoreSave, gen, 0, [&] {
                durableOk &= core::mergeSaveCacheStore(cachePath, 1, records);
            });
            timed(spans, SpanKind::CacheStoreLoad, gen, 0, [&] {
                const auto load = core::loadCacheStore(cachePath, 1);
                durableOk &= load.usable();
                out.cacheStoreEntries = static_cast<double>(load.records.size());
            });
            out.cacheStoreKb = fileKb(cachePath);
        }
        if (!durableOk)
            GEVO_FATAL("%s: replay checkpoint/cache-store round trip failed",
                       spec.name.c_str());
        out.checkpointKb = fileKb(checkpointPath);

        spans.record(SpanKind::ReplayGeneration, genStart, Clock::now(), gen);
    }
    out.bestEdits = best.edits;
    std::filesystem::remove(checkpointPath);
    std::filesystem::remove(cachePath);
    return out;
}

} // namespace gevobench
