#include "core/engine.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "core/cache_store.h"
#include "core/checkpoint.h"
#include "core/eval_backend.h"
#include "support/logging.h"
#include "support/strings.h"

namespace gevo::core {

namespace {

/// Seed for island \p island's private stream. Island 0 uses the search
/// seed verbatim — a 1-island run is bit-for-bit the pre-island engine —
/// and higher islands decorrelate through a golden-ratio multiple (the
/// Rng constructor splitmixes whatever it is given, so nearby values
/// still yield independent streams).
std::uint64_t
islandSeed(std::uint64_t seed, std::uint32_t island)
{
    return seed ^ (0x9e3779b97f4a7c15ULL * island);
}

/// The deterministic score served for quarantined genotypes. Same
/// valid/ms as every evaluation-failure penalty (invalid, +inf), so a
/// resumed run that serves this from the restored quarantine set sorts
/// and breeds exactly like the uninterrupted run that saw the original
/// failure.
FitnessResult
quarantinePenalty()
{
    return FitnessResult::fail("quarantined: evaluating this genotype "
                               "previously killed its worker");
}

void
countFailure(GenerationLog* log, EvalFailure failure)
{
    switch (failure) {
      case EvalFailure::WorkerCrash: ++log->workerCrashes; break;
      case EvalFailure::WorkerTimeout: ++log->workerTimeouts; break;
      case EvalFailure::ProtocolError: ++log->protocolErrors; break;
      case EvalFailure::None: break;
    }
}

/// Checkpoint scope fingerprint: the cache scope's inputs plus every
/// trajectory-relevant parameter. Doubles are rendered with %a so the
/// fingerprint is exact. Trajectory-neutral knobs (threads, cache
/// settings, backend, the generation budget) are excluded on purpose —
/// see core/checkpoint.h.
std::uint64_t
checkpointScopeOf(const CompiledVariant& baselineCv,
                  const FitnessFunction& fitness,
                  const EvolutionParams& p)
{
    const auto& w = p.sampler;
    const std::string fingerprint = strformat(
        "pop=%u eli=%u xov=%a mut=%a app=%a tour=%u seed=%llu isl=%u "
        "mig=%u,%u w=%a,%a,%a,%a,%a,%a smp=%u floor=%a topo=%u adapt=%u "
        "fam=%u sel=%u obj=%s",
        p.populationSize, p.elitism, p.crossoverProb, p.mutationProb,
        p.mutationAppendProb, p.tournamentSize,
        static_cast<unsigned long long>(p.seed), p.islands,
        p.migrationInterval, p.migrationCount, w.wDelete, w.wCopy, w.wMove,
        w.wReplace, w.wSwap, w.wOperand,
        static_cast<unsigned>(p.samplerKind), w.exploreFloor,
        static_cast<unsigned>(p.topology), p.adaptRates ? 1u : 0u,
        p.fitnessAwareMigrants ? 1u : 0u,
        static_cast<unsigned>(p.selection),
        objectiveListName(p.objectives).c_str());
    return scopeFingerprint(baselineCv, fitness, fingerprint);
}

} // namespace

EvolutionEngine::EvolutionEngine(const ir::Module& base,
                                 const FitnessFunction& fitness,
                                 EvolutionParams params)
    : base_(base), fitness_(fitness), params_(params), topology_(params_),
      cache_(params_.cacheMaxEntries), programCache_(params_.cacheMaxEntries)
{
    // User-facing parameter validation (these arrive straight from
    // flags, so they are fatal user errors, not internal invariants).
    if (params_.populationSize < 2)
        GEVO_FATAL("populationSize must be >= 2 (got %u)",
                   params_.populationSize);
    if (params_.elitism >= params_.populationSize)
        GEVO_FATAL("elitism (%u) must be below populationSize (%u)",
                   params_.elitism, params_.populationSize);
    if (params_.migrationCount >= params_.populationSize)
        GEVO_FATAL("migrationCount (%u) must be below populationSize (%u)",
                   params_.migrationCount, params_.populationSize);
    if (params_.backend == EvalBackendKind::Isolated &&
        params_.evalTimeoutMs == 0)
        GEVO_FATAL("evalTimeoutMs must be > 0 with the isolated backend "
                   "(the deadline needs a budget)");
    if (params_.backend == EvalBackendKind::Remote) {
        if (params_.workers.empty())
            GEVO_FATAL("the remote backend needs --workers "
                       "(comma-separated host:port or unix:/path)");
        if (params_.evalTimeoutMs == 0)
            GEVO_FATAL("evalTimeoutMs must be > 0 with the remote backend "
                       "(the per-evaluation deadline needs a budget)");
    }
    if (params_.resume && params_.checkpointPath.empty())
        GEVO_FATAL("resume requires a checkpointPath");
    params_.sampler.validate();
    if (params_.samplerKind == SamplerKind::Guided)
        guidedSamplers_.resize(topology_.islandCount());
}

const mut::MutationSampler*
EvolutionEngine::samplerFor(std::uint32_t i) const
{
    if (params_.samplerKind == SamplerKind::Guided)
        return &guidedSamplers_[i];
    return &uniformSampler_;
}

void
EvolutionEngine::profileElites(const std::vector<Island>& islands)
{
    if (params_.samplerKind != SamplerKind::Guided)
        return;
    // One profiled evaluation per island per generation — the cheap path.
    // The elite's cleaned module shares the base's interned-loc table
    // (COW), so the histogram indexes map straight onto the instruction
    // locs the sampler sees. An invalid elite (or a workload without
    // profiling support) keeps the previous generation's heat.
    for (std::size_t i = 0; i < islands.size(); ++i) {
        const Individual& elite = islands[i].pop.best();
        if (!elite.fitness.valid)
            continue;
        const auto cv = compileVariant(base_, elite.edits);
        if (!cv.ok)
            continue;
        ProfileSummary summary;
        if (fitness_.profileVariant(cv, &summary))
            guidedSamplers_[i].setProfile(summary.locIssues);
    }
}

void
EvolutionEngine::adaptRatesStep(std::vector<Island>* islands,
                                GenerationLog* log)
{
    if (!params_.adaptRates)
        return;
    // Log-normal-style multiplicative perturbation (the ESCH lineage's
    // self-adaptation rule, from a uniform draw since the Rng has no
    // gaussian): w' = clamp(w * exp(tau * U(-1, 1))). exploreFloor is
    // left alone — it is a guided-sampler shape knob, not an operator
    // rate.
    constexpr double kTau = 0.25;
    constexpr double kMinW = 0.01;
    constexpr double kMaxW = 4.0;
    auto perturb = [&](const mut::SamplerConfig& from, Rng& rng) {
        mut::SamplerConfig next = from;
        for (double* w : {&next.wDelete, &next.wCopy, &next.wMove,
                          &next.wReplace, &next.wSwap, &next.wOperand}) {
            const double factor =
                std::exp(kTau * (2.0 * rng.uniform() - 1.0));
            *w = std::clamp(*w * factor, kMinW, kMaxW);
        }
        return next;
    };
    for (auto& island : *islands) {
        // Verdict on the candidate that bred this generation: keep it
        // only when the island's best improved under it (1+1 rule at
        // island granularity).
        if (island.ratePending && island.bestMs < island.rateLastBest)
            island.rates = island.candidateRates;
        island.rateLastBest = island.bestMs;
        island.candidateRates = perturb(island.rates, island.rng);
        island.ratePending = true;
        island.pop.rates() = island.candidateRates;
        log->islandRates.push_back(island.candidateRates);
    }
}

void
EvolutionEngine::evaluateIslands(EvaluationBackend& backend,
                                 std::vector<Island>* islands,
                                 GenerationLog* log)
{
    if (!params_.useCache) {
        // Reference path: literal compile-per-call — every individual of
        // every island is re-patched, re-cleaned, re-verified, re-decoded
        // and re-simulated every generation, with no memo of any kind
        // (the null programCache keeps the backend from even computing
        // content keys). Deterministic fitness makes this trajectory-
        // identical to the cached path.
        std::vector<Individual*> all;
        for (auto& island : *islands) {
            for (auto& ind : island.pop.members())
                all.push_back(&ind);
        }
        log->evaluations += all.size();

        // Quarantine screen. Only taken once something is quarantined:
        // until then the reference path computes no canonical keys at
        // all, exactly as before the backend seam existed.
        std::vector<Individual*> todo;
        std::vector<std::string> todoKeys;
        if (quarantine_.empty()) {
            todo = std::move(all);
        } else {
            todoKeys.reserve(all.size());
            for (auto* ind : all) {
                std::string key = VariantCache::keyOf(ind->edits);
                if (quarantine_.count(key) != 0) {
                    ind->fitness = quarantinePenalty();
                    ind->evaluated = true;
                    ++log->quarantineHits;
                } else {
                    todo.push_back(ind);
                    todoKeys.push_back(std::move(key));
                }
            }
        }

        std::vector<const std::vector<mut::Edit>*> batch;
        batch.reserve(todo.size());
        for (const auto* ind : todo)
            batch.push_back(&ind->edits);
        std::vector<EvalOutcome> outcomes;
        backend.evaluateBatch(batch, nullptr, &outcomes);
        for (std::size_t i = 0; i < todo.size(); ++i) {
            todo[i]->fitness = outcomes[i].result;
            todo[i]->evaluated = true;
            if (outcomes[i].failure != EvalFailure::None) {
                countFailure(log, outcomes[i].failure);
                quarantine_.insert(
                    todoKeys.empty() ? VariantCache::keyOf(todo[i]->edits)
                                     : todoKeys[i]);
            }
        }
        log->cacheMisses += batch.size();
        log->cacheHits += log->quarantineHits;
        return;
    }

    // Whole-generation batching: the unevaluated individuals of every
    // island go into one work list (island order, then population order —
    // deterministic regardless of thread count), deduplicated globally so
    // identical offspring on different islands compile at most once.
    std::vector<Individual*> todo;
    for (auto& island : *islands) {
        for (auto& ind : island.pop.members()) {
            if (!ind.evaluated)
                todo.push_back(&ind);
        }
    }
    log->evaluations += todo.size();

    // Group identical offspring by canonical key; the first occurrence is
    // the group's representative.
    std::vector<std::string> keys(todo.size());
    std::unordered_map<std::string, std::size_t> firstOf;
    std::vector<std::size_t> owner(todo.size());
    std::vector<std::size_t> reps;
    for (std::size_t i = 0; i < todo.size(); ++i) {
        keys[i] = VariantCache::keyOf(todo[i]->edits);
        const auto [it, inserted] = firstOf.try_emplace(keys[i], i);
        owner[i] = it->second;
        if (inserted)
            reps.push_back(i);
    }

    // Serve representatives from the quarantine set and the
    // cross-generation cache.
    std::vector<std::size_t> missing;
    for (const std::size_t rep : reps) {
        if (!quarantine_.empty() && quarantine_.count(keys[rep]) != 0) {
            todo[rep]->fitness = quarantinePenalty();
            todo[rep]->evaluated = true;
            ++log->quarantineHits;
            continue;
        }
        FitnessResult cached;
        if (cache_.lookup(keys[rep], &cached)) {
            todo[rep]->fitness = cached;
            todo[rep]->evaluated = true;
        } else {
            missing.push_back(rep);
        }
    }

    // Dispatch each unique miss to the backend (compile once; simulation
    // — the expensive stage — only runs when the compiled program itself
    // is novel: distinct edit lists routinely clean up to identical
    // programs, which the program-content cache collapses).
    std::vector<const std::vector<mut::Edit>*> batch;
    batch.reserve(missing.size());
    for (const std::size_t rep : missing)
        batch.push_back(&todo[rep]->edits);
    std::vector<EvalOutcome> outcomes;
    backend.evaluateBatch(batch, &programCache_, &outcomes);

    // Settle outcomes in deterministic representative order. The level-0
    // insert happens here, parent-side, because the backend may have run
    // the evaluation in another process; failures go to quarantine
    // instead of the cache (the caches hold values of the deterministic
    // fitness function — a dead worker is not one).
    std::size_t worked = 0;
    for (std::size_t i = 0; i < missing.size(); ++i) {
        const std::size_t rep = missing[i];
        Individual* ind = todo[rep];
        const EvalOutcome& outcome = outcomes[i];
        ind->fitness = outcome.result;
        ind->evaluated = true;
        if (outcome.failure != EvalFailure::None) {
            countFailure(log, outcome.failure);
            quarantine_.insert(keys[rep]);
            ++worked; // It cost (and killed) a worker's pipeline attempt.
            continue;
        }
        cache_.insert(keys[rep], ind->fitness);
        if (outcome.simulated || outcome.rejected)
            ++worked;
    }

    // Fan representative results out to within-generation duplicates.
    for (std::size_t i = 0; i < todo.size(); ++i) {
        if (!todo[i]->evaluated) {
            todo[i]->fitness = todo[owner[i]]->fitness;
            todo[i]->evaluated = true;
        }
    }
    // A miss is a request that cost real pipeline work: a simulation, a
    // compile the verifier rejected, or an evaluation that took its
    // worker down. Everything else was served from a memo/cache level —
    // the quarantine set included. (Under concurrency two workers can
    // race to first-simulate the same novel program; the values are
    // deterministic either way, only these counters can wobble by the
    // overlap.)
    log->cacheMisses += worked;
    log->cacheHits += todo.size() - worked;
}

std::size_t
EvolutionEngine::loadPersistentCaches()
{
    const auto load = loadCacheStore(params_.cachePath, cacheScope_);
    using Status = CacheLoadResult::Status;
    switch (load.status) {
    case Status::Missing:
        return 0; // Normal first run: cold start, nothing to say.
    case Status::BadHeader:
    case Status::VersionMismatch:
    case Status::ScopeMismatch:
    case Status::Corrupt:
        warn("ignoring cache file '%s' (%s): cold start",
             params_.cachePath.c_str(), load.message.c_str());
        return 0;
    case Status::Ok:
        break;
    }
    if (load.truncated)
        warn("cache file '%s': %s", params_.cachePath.c_str(),
             load.message.c_str());
    // Split records by level, preserving file order so bounded caches
    // re-enter LRU order deterministically. Unknown levels (from a future
    // writer of the same format version) are ignored, not an error.
    std::vector<std::pair<std::string, FitnessResult>> level0;
    std::vector<std::pair<std::string, FitnessResult>> level1;
    for (const auto& rec : load.records) {
        if (rec.level == 0)
            level0.emplace_back(rec.key, rec.result);
        else if (rec.level == 1)
            level1.emplace_back(rec.key, rec.result);
    }
    return cache_.preload(level0) + programCache_.preload(level1);
}

void
EvolutionEngine::savePersistentCaches() const
{
    std::vector<CacheStoreRecord> records;
    for (auto& [key, fitnessResult] : cache_.snapshot())
        records.push_back({0, std::move(key), fitnessResult});
    for (auto& [key, fitnessResult] : programCache_.snapshot())
        records.push_back({1, std::move(key), fitnessResult});
    // Merge-on-save: concurrent searches sharing this cache path union
    // their snapshots instead of last-writer-wins clobbering each other.
    std::string error;
    if (!mergeSaveCacheStore(params_.cachePath, cacheScope_, records,
                             &error))
        warn("cache save to '%s' failed (%s); continuing without "
             "persistence",
             params_.cachePath.c_str(), error.c_str());
}

void
EvolutionEngine::updateParetoArchive(const std::vector<Island>& islands)
{
    // Candidates: the current archive plus every valid member,
    // deduplicated by canonical key (first occurrence wins — fitness is
    // a deterministic function of the key, so duplicates are equal).
    std::vector<Individual> pool;
    std::vector<std::string> keys;
    std::unordered_set<std::string> seen;
    const auto add = [&](const Individual& ind) {
        std::string key = VariantCache::keyOf(ind.edits);
        if (!seen.insert(key).second)
            return;
        pool.push_back(ind);
        keys.push_back(std::move(key));
    };
    for (const auto& ind : paretoArchive_)
        add(ind);
    for (const auto& island : islands)
        for (const auto& ind : island.pop.members())
            if (ind.fitness.valid)
                add(ind);

    // Keep the non-dominated subset: paretoScores' rank 0. Equal
    // objective vectors under distinct keys are all kept — distinct edit
    // lists tied on the front are exactly what the front should report.
    std::vector<const FitnessResult*> fits;
    fits.reserve(pool.size());
    for (const auto& ind : pool)
        fits.push_back(&ind.fitness);
    const auto scores = paretoScores(fits, keys, params_.objectives);
    std::vector<std::size_t> keep;
    for (std::size_t i = 0; i < pool.size(); ++i)
        if (scores[i].rank == 0)
            keep.push_back(i);
    std::sort(keep.begin(), keep.end(),
              [&](std::size_t a, std::size_t b) { return keys[a] < keys[b]; });
    paretoArchive_.clear();
    paretoArchive_.reserve(keep.size());
    for (const std::size_t i : keep)
        paretoArchive_.push_back(std::move(pool[i]));
}

void
EvolutionEngine::saveSearchCheckpoint(const std::vector<Island>& islands,
                                      const SearchResult& result,
                                      std::uint32_t lastGen,
                                      bool finished) const
{
    CheckpointState st;
    st.generation = lastGen;
    st.finished = finished;
    st.baselineMs = result.baselineMs;
    st.best = result.best;
    st.history = result.history;
    st.islands.reserve(islands.size());
    for (const auto& island : islands) {
        CheckpointIsland ci;
        ci.rngState = island.rng.state();
        ci.bestMs = island.bestMs;
        ci.members = island.pop.members();
        ci.rates = island.rates;
        ci.candidateRates = island.candidateRates;
        ci.ratePending = island.ratePending;
        ci.rateLastBest = island.rateLastBest;
        st.islands.push_back(std::move(ci));
    }
    st.quarantine.assign(quarantine_.begin(), quarantine_.end());
    std::sort(st.quarantine.begin(), st.quarantine.end());
    st.paretoFront = paretoArchive_;
    std::string error;
    if (!saveCheckpoint(params_.checkpointPath, checkpointScope_, st,
                        &error))
        warn("checkpoint save to '%s' failed (%s); continuing without "
             "durability",
             params_.checkpointPath.c_str(), error.c_str());
}

SearchResult
EvolutionEngine::run(const GenerationCallback& onGeneration)
{
    SearchResult result;
    stopRequested_.store(false, std::memory_order_relaxed);
    quarantine_.clear();
    paretoArchive_.clear();

    const auto baselineCv = compileVariant(base_, {});
    if (!baselineCv.ok)
        GEVO_FATAL("baseline program fails its own tests: %s",
                   baselineCv.failReason.c_str());
    const auto baseline = fitness_.evaluate(baselineCv);
    if (!baseline.valid)
        GEVO_FATAL("baseline program fails its own tests: %s",
                   baseline.failReason.c_str());

    // Persistence is scoped to (compiled baseline content, fitness
    // description): level-0 keys are pure edit-list bytes, identical
    // across workloads, so an unscoped file from another workload (or
    // the same one at another dataset scale/device — the fitness name
    // carries those) would serve wrong fitness values with no error.
    const bool persist = params_.useCache && !params_.cachePath.empty();
    if (persist) {
        cacheScope_ = scopeFingerprint(baselineCv, fitness_);
        result.cacheSummary.preloaded = loadPersistentCaches();
    }
    result.baselineMs = baseline.ms();
    result.best.fitness = baseline;
    result.best.evaluated = true;
    if (params_.useCache) {
        // Crossover routinely produces empty edit lists, and edits often
        // cancel back to the baseline program; serve both from the
        // baseline evaluation instead of re-simulating.
        cache_.insert(VariantCache::keyOf({}), baseline);
        programCache_.insert(baselineCv.programs.contentKey(), baseline);
    }

    const auto backend = makeBackend(base_, fitness_, params_);

    const std::uint32_t numIslands = topology_.islandCount();
    std::vector<Island> islands;
    islands.reserve(numIslands);

    // ---- checkpoint restore (or cold start) ----
    const bool checkpointing = !params_.checkpointPath.empty();
    if (checkpointing)
        checkpointScope_ = checkpointScopeOf(baselineCv, fitness_, params_);
    std::uint32_t startGen = 1;
    bool restored = false;
    if (checkpointing && params_.resume) {
        const auto load =
            loadCheckpoint(params_.checkpointPath, checkpointScope_);
        using Status = CheckpointLoadResult::Status;
        switch (load.status) {
        case Status::Missing:
            inform("no checkpoint at '%s': starting fresh",
                   params_.checkpointPath.c_str());
            break;
        case Status::BadHeader:
        case Status::VersionMismatch:
        case Status::ScopeMismatch:
        case Status::Corrupt:
            warn("ignoring checkpoint '%s' (%s): starting fresh",
                 params_.checkpointPath.c_str(), load.message.c_str());
            break;
        case Status::Ok: {
            const CheckpointState& st = load.state;
            // The scope fingerprint pins the island layout, so a
            // mismatch here means the file lied about its scope.
            GEVO_ASSERT(st.islands.size() == numIslands,
                        "checkpoint island count mismatch");
            for (std::uint32_t i = 0; i < numIslands; ++i) {
                islands.push_back(
                    {Population(base_, params_), Rng(0),
                     st.islands[i].bestMs});
                islands.back().pop.members() = st.islands[i].members;
                islands.back().rng.setState(st.islands[i].rngState);
                islands.back().pop.setSampler(samplerFor(i));
                islands.back().rates = st.islands[i].rates;
                islands.back().candidateRates =
                    st.islands[i].candidateRates;
                islands.back().ratePending = st.islands[i].ratePending;
                islands.back().rateLastBest = st.islands[i].rateLastBest;
                if (params_.adaptRates)
                    islands.back().pop.rates() =
                        islands.back().ratePending
                            ? islands.back().candidateRates
                            : islands.back().rates;
            }
            result.history = st.history;
            result.best = st.best;
            paretoArchive_ = st.paretoFront;
            quarantine_.insert(st.quarantine.begin(),
                               st.quarantine.end());
            startGen = st.generation + 1;
            restored = true;
            inform("resumed '%s' after generation %u (%s)",
                   params_.checkpointPath.c_str(), st.generation,
                   st.finished ? "a finished run" : "mid-search");
            break;
        }
        }
    }
    if (!restored) {
        for (std::uint32_t i = 0; i < numIslands; ++i) {
            islands.push_back({Population(base_, params_),
                               Rng(islandSeed(params_.seed, i)),
                               baseline.ms()});
            islands.back().pop.setSampler(samplerFor(i));
            islands.back().rates = params_.sampler;
            islands.back().candidateRates = params_.sampler;
            islands.back().pop.seed(islands.back().rng);
        }
    }

    std::uint32_t lastGen = startGen - 1;
    for (std::uint32_t gen = startGen; gen <= params_.generations; ++gen) {
        GenerationLog log;
        log.generation = gen;
        evaluateIslands(*backend, &islands, &log);

        double sum = 0.0;
        for (auto& island : islands) {
            island.pop.sortByFitness();
            // Scan every member for the scalar best, not just the
            // sorted front: in Pareto mode the head of the list is
            // rank/crowding ordered, not the time minimum. The strict
            // better() comparator makes this identical to the
            // historical front-only check in Scalar mode, where the
            // front IS the minimum.
            for (const auto& ind : island.pop.members()) {
                if (!ind.fitness.valid)
                    continue;
                sum += ind.fitness.ms();
                ++log.validCount;
                island.bestMs = std::min(island.bestMs, ind.fitness.ms());
                if (FitnessResult::better(ind.fitness,
                                          result.best.fitness))
                    result.best = ind;
            }
            log.islandBestMs.push_back(island.bestMs);
        }
        if (params_.selection == SelectionKind::Pareto) {
            updateParetoArchive(islands);
            log.paretoFrontSize = paretoArchive_.size();
        }
        // Diagnosis feedback for the next breed: re-profile each island's
        // elite for the guided samplers, then run the per-island
        // self-adaptation step (which records the next generation's rates
        // in this log entry). Both happen before migration/breed and draw
        // only from per-island streams, so resumed runs replay them
        // bit-identically.
        profileElites(islands);
        adaptRatesStep(&islands, &log);
        log.meanMs = log.validCount
                         ? sum / static_cast<double>(log.validCount)
                         : 0.0;
        log.bestMs = result.best.fitness.ms();
        log.bestEdits = result.best.edits;
        result.history.push_back(log);
        if (onGeneration)
            onGeneration(result.history.back(), result);

        // ---- migration (simultaneous: all outboxes snapshot first) ----
        const auto edges = topology_.migrationsAfter(gen);
        if (!edges.empty() && params_.migrationCount > 0) {
            std::vector<std::vector<Individual>> outbox(islands.size());
            for (const auto& e : edges) {
                GEVO_ASSERT(e.from < islands.size() && e.to < islands.size(),
                            "migration edge out of range");
                if (outbox[e.from].empty())
                    outbox[e.from] =
                        islands[e.from].pop.emigrants(params_.migrationCount);
            }
            for (const auto& e : edges)
                islands[e.to].pop.receiveMigrants(outbox[e.from]);
        }

        // ---- breed the next generation on every island ----
        for (auto& island : islands)
            island.pop.breedNext(island.rng);
        lastGen = gen;

        // A stop request (SIGINT/SIGTERM) finishes the in-flight
        // generation — evaluate, log, migrate, breed, exactly as above —
        // then leaves the loop so the final saves below capture a state
        // any later --resume continues bit-identically.
        if (stopRequested_.load(std::memory_order_relaxed)) {
            result.interrupted = true;
            break;
        }

        // Periodic persistence: a long campaign killed mid-run still
        // warm-starts from its last interval. The save runs between
        // evaluation dispatches (no worker is touching the caches), but
        // snapshot() tolerates concurrent inserts regardless. The
        // checkpoint is written after breedNext on purpose: populations
        // are already bred for gen + 1 and the RNG streams sit exactly
        // where the next generation's draws begin.
        if (gen != params_.generations) {
            if (persist && params_.cacheSaveInterval > 0 &&
                gen % params_.cacheSaveInterval == 0)
                savePersistentCaches();
            if (checkpointing && params_.checkpointInterval > 0 &&
                gen % params_.checkpointInterval == 0)
                saveSearchCheckpoint(islands, result, gen, false);
        }
    }
    if (persist)
        savePersistentCaches();
    if (checkpointing)
        saveSearchCheckpoint(islands, result, lastGen,
                             !result.interrupted &&
                                 lastGen >= params_.generations);
    for (const auto& log : result.history) {
        result.cacheSummary.served += log.cacheHits;
        result.cacheSummary.evaluated += log.cacheMisses;
        result.evalFailures += log.workerCrashes + log.workerTimeouts +
                               log.protocolErrors;
    }
    result.quarantined = quarantine_.size();
    result.paretoFront = paretoArchive_;
    const auto cs = cache_.stats();
    const auto ps = programCache_.stats();
    result.cacheSummary.entries = cs.entries + ps.entries;
    result.cacheSummary.evictions = cs.evictions + ps.evictions;
    return result;
}

} // namespace gevo::core
