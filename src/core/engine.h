/// \file
/// The GEVO evolutionary search orchestrator.
///
/// Runs N islands (core/population.h) under a search topology
/// (core/topology.h): per-island RNG streams, periodic migration, and a
/// shared two-level variant cache. Fitness evaluations from every island
/// are batched into one EvaluationBackend dispatch per generation
/// (core/eval_backend.h — in-process evaluators on the process-wide
/// helper threads, or crash-isolated worker sessions), so the backend
/// sees the whole generation's work at once regardless of island count.
///
/// islands = 1 is the paper's Sec III-E configuration (population 256,
/// elitism 4, crossover 0.8, mutation 0.3) and reproduces the pre-island
/// engine bit-for-bit: island 0's RNG stream is seeded with the search
/// seed directly and every operator draws in the same order, so (seed,
/// base module, fitness) fully determines the trajectory — which is what
/// lets the Figure 8 discovery-sequence analysis recapitulate a run.

#ifndef GEVO_CORE_ENGINE_H
#define GEVO_CORE_ENGINE_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/fitness.h"
#include "core/params.h"
#include "core/population.h"
#include "core/topology.h"
#include "core/variant_cache.h"
#include "support/rng.h"

namespace gevo::core {

class EvaluationBackend;

/// Per-generation record (drives Figures 6 and 8). With islands > 1 the
/// scalar fields aggregate across islands (bestMs/bestEdits are global,
/// meanMs/validCount/evaluations are summed over all islands).
struct GenerationLog {
    std::uint32_t generation = 0;
    double bestMs = 0.0;     ///< Best (lowest) valid fitness so far.
    double meanMs = 0.0;     ///< Mean over valid individuals this gen.
    std::size_t validCount = 0;
    std::size_t evaluations = 0; ///< Fitness requests this generation.
    /// Requests served from a memo/cache level (within-generation
    /// duplicates, edit-list hits, compiled-program hits, quarantine
    /// serves) with no simulation and no rejected compile. Zero when the
    /// cache is off, except for quarantine serves — those exist on the
    /// reference path too.
    std::size_t cacheHits = 0;
    /// Requests that cost real pipeline work this generation: simulated,
    /// or compiled and rejected by the verifier.
    std::size_t cacheMisses = 0;
    std::vector<mut::Edit> bestEdits; ///< Edit list of the run best.
    /// Per-island best-so-far fitness (one entry per island). Island 0 of
    /// a migration-free run evolves exactly like a single-island search
    /// with the same seed.
    std::vector<double> islandBestMs;
    /// Per-island operator rates that will breed the NEXT generation
    /// (one entry per island when params.adaptRates is on, empty
    /// otherwise) — the ESCH-style self-adaptation audit trail.
    std::vector<mut::SamplerConfig> islandRates;

    // ---- robustness accounting (core/eval_backend.h) ----
    /// Evaluations whose worker died (segfault/abort/OOM) this generation.
    std::size_t workerCrashes = 0;
    /// Evaluations that blew the per-evaluation deadline this generation.
    std::size_t workerTimeouts = 0;
    /// Evaluations whose worker returned an undecodable response.
    std::size_t protocolErrors = 0;
    /// Requests served from the quarantine set this generation: genotypes
    /// that previously took a worker down are scored as the deterministic
    /// failure penalty without being dispatched again. Counted inside
    /// cacheHits (they are served from a memo level), broken out here.
    std::size_t quarantineHits = 0;

    /// Size of the cross-generation Pareto archive after this
    /// generation (always 0 in Scalar mode — the field only reaches
    /// --dump-history output under --select=pareto).
    std::size_t paretoFrontSize = 0;
};

/// Whole-run cache accounting, aggregated from the GenerationLogs (they
/// count every request, duplicate fan-outs and program-level hits
/// included, which never call VariantCache::lookup()).
struct CacheSummary {
    std::size_t served = 0;    ///< Requests served from memo/cache.
    std::size_t evaluated = 0; ///< Requests that cost pipeline work.
    std::size_t entries = 0;   ///< Entries across both cache levels.
    std::size_t evictions = 0; ///< LRU evictions across both levels.
    /// Entries loaded from EvolutionParams::cachePath before generation 1
    /// (0 on a cold start or when persistence is off).
    std::size_t preloaded = 0;
};

/// Result of a full search.
struct SearchResult {
    double baselineMs = 0.0;  ///< Fitness of the unmodified program.
    Individual best;          ///< Best individual over the whole run.
    std::vector<GenerationLog> history;
    CacheSummary cacheSummary;
    /// Evaluation failures over the whole run (worker crashes + deadline
    /// timeouts + protocol errors, summed from the history).
    std::size_t evalFailures = 0;
    /// Genotypes in the quarantine set when the run ended.
    std::size_t quarantined = 0;
    /// The run stopped early via requestStop() (SIGINT/SIGTERM): history
    /// covers only the completed generations, and the final checkpoint /
    /// cache saves have already been written.
    bool interrupted = false;
    /// Non-dominated archive over the whole run (Pareto selection only;
    /// empty in Scalar mode). Deterministically ordered by canonical
    /// edit-list key.
    std::vector<Individual> paretoFront;

    /// Final speedup (baseline / best), 1.0 when nothing improved.
    double speedup() const
    {
        return best.fitness.valid && best.fitness.ms() > 0.0
                   ? baselineMs / best.fitness.ms()
                   : 1.0;
    }
};

/// Evolutionary search driver: owns the islands, the evaluation pipeline
/// and the caches; delegates population structure to a Topology.
class EvolutionEngine {
  public:
    /// Observer invoked after each generation (progress reporting).
    using GenerationCallback =
        std::function<void(const GenerationLog&, const SearchResult&)>;

    /// \p base must evaluate as valid under \p fitness (fatal otherwise —
    /// a broken baseline means the test suite itself is wrong).
    EvolutionEngine(const ir::Module& base, const FitnessFunction& fitness,
                    EvolutionParams params);

    /// Run the configured number of generations.
    SearchResult run(const GenerationCallback& onGeneration = {});

    /// Ask a running search to stop after the in-flight generation
    /// completes (breed, checkpoint and cache saves included). Safe to
    /// call from a signal handler (a lock-free atomic store) or another
    /// thread; the result comes back with `interrupted = true`.
    void
    requestStop()
    {
        stopRequested_.store(true, std::memory_order_relaxed);
    }

  private:
    /// One island: a population plus its private RNG stream and its
    /// self-adaptive operator-rate state (meaningful when
    /// params.adaptRates; inert defaults otherwise).
    struct Island {
        Population pop;
        Rng rng;
        double bestMs;
        /// Accepted operator rates (the 1+1-ES incumbent).
        mut::SamplerConfig rates{};
        /// Perturbed rates that bred the generation now being evaluated.
        mut::SamplerConfig candidateRates{};
        /// candidateRates awaits its accept/revert verdict.
        bool ratePending = false;
        /// Island best at the moment candidateRates was proposed; the
        /// verdict compares against this.
        double rateLastBest = 0.0;
    };

    /// The sampler driving island \p i's populations.
    const mut::MutationSampler* samplerFor(std::uint32_t i) const;

    /// Re-profile island elites and feed the heat to the guided samplers
    /// (no-op unless params.samplerKind == Guided).
    void profileElites(const std::vector<Island>& islands);

    /// One self-adaptation step per island (ESCH-style 1+1 rule): judge
    /// the pending candidate against the island best, adopt or revert,
    /// propose the next candidate from the island's own RNG stream, and
    /// record the rates that will breed the next generation in \p log.
    void adaptRatesStep(std::vector<Island>* islands, GenerationLog* log);

    /// Evaluate every unevaluated individual across all islands as one
    /// batched backend dispatch, deduplicated globally and served from
    /// the shared caches and the quarantine set.
    void evaluateIslands(EvaluationBackend& backend,
                         std::vector<Island>* islands, GenerationLog* log);

    /// Fold this generation's valid members into the cross-generation
    /// non-dominated archive (Pareto mode only): dedup by canonical
    /// edit-list key, drop dominated entries, order by key.
    void updateParetoArchive(const std::vector<Island>& islands);

    /// Snapshot the full search state to params_.checkpointPath
    /// (failure warns and continues — durability never fails a search).
    void saveSearchCheckpoint(const std::vector<Island>& islands,
                              const SearchResult& result,
                              std::uint32_t lastGen, bool finished) const;

    /// Load params_.cachePath into both cache levels (cold start on any
    /// failure, with a warning). Returns the number of entries loaded.
    std::size_t loadPersistentCaches();

    /// Snapshot both cache levels to params_.cachePath (atomic rename;
    /// failure warns and continues — persistence never fails a search).
    void savePersistentCaches() const;

    /// Scope fingerprint binding cache files to this search (compiled
    /// baseline content + fitness description — covers app, dataset
    /// scale and device). Computed once per run().
    std::uint64_t cacheScope_ = 0;
    /// Scope fingerprint binding checkpoint files to this search: the
    /// cache scope inputs PLUS every trajectory-relevant parameter (see
    /// core/checkpoint.h). Computed once per run().
    std::uint64_t checkpointScope_ = 0;

    /// Cross-generation Pareto archive (Pareto mode only; checkpointed
    /// and surfaced as SearchResult::paretoFront).
    std::vector<Individual> paretoArchive_;

    const ir::Module& base_;
    const FitnessFunction& fitness_;
    EvolutionParams params_;
    Topology topology_;
    /// Edit-sampling strategies. Uniform is stateless and shared;
    /// guided samplers are per island (each carries its island elite's
    /// loc-heat profile).
    mut::UniformSampler uniformSampler_;
    std::vector<mut::ProfileGuidedSampler> guidedSamplers_;
    /// Level 1: canonical edit-list key -> fitness (skips even the
    /// compile stage for genotypes seen before).
    VariantCache cache_;
    /// Level 2: compiled-program content key -> fitness. Distinct edit
    /// lists very often clean up to the identical program (dangling edits
    /// skip, DCE strips dead inserts — paper Sec V-A: 1394 edits, 17
    /// matter), so novel genotypes usually need only the cheap compile
    /// stage, not a simulation.
    VariantCache programCache_;
    /// Canonical edit-list keys of genotypes whose evaluation took a
    /// worker down (crash/hang/garbage). Never dispatched again: they are
    /// served the deterministic failure penalty, which keeps the resumed
    /// and the uninterrupted trajectory identical — and keeps a
    /// crash-variant from killing a fresh worker every generation it
    /// reappears. Deliberately NOT a cache entry: the caches hold values
    /// of the deterministic fitness function, and a worker death is a
    /// property of the evaluation machinery, not of the variant's
    /// fitness.
    std::unordered_set<std::string> quarantine_;
    /// Set by requestStop(); polled once per generation.
    std::atomic<bool> stopRequested_{false};
};

} // namespace gevo::core

#endif // GEVO_CORE_ENGINE_H
