/// \file
/// One GA population: individuals plus the paper's Sec III-E breeding
/// operators (tournament selection, one-point crossover, append/drop
/// mutation, elitism).
///
/// Extracted from the pre-island EvolutionEngine so the orchestrator can
/// run N of these side by side. The operator implementations and their
/// RNG draw order are preserved verbatim: a single Population driven by
/// one Rng stream reproduces the pre-island engine's trajectory exactly.
/// Fitness evaluation is NOT here — the engine owns it, so that
/// evaluations from every island can be batched into one backend
/// dispatch and share the variant caches.

#ifndef GEVO_CORE_POPULATION_H
#define GEVO_CORE_POPULATION_H

#include <vector>

#include "core/fitness.h"
#include "core/params.h"
#include "mutation/edit.h"
#include "mutation/sampler.h"
#include "support/rng.h"

namespace gevo::core {

/// One member of the population: an edit list plus its cached fitness.
struct Individual {
    std::vector<mut::Edit> edits;
    FitnessResult fitness;
    bool evaluated = false;
    /// Pareto bookkeeping, recomputed by every Pareto-mode
    /// sortByFitness (never serialized; meaningless in Scalar mode).
    /// Rank 0 is the non-dominated front of this island's members.
    std::uint32_t paretoRank = 0;
    double crowding = 0.0;
};

/// A population with the GA operators; all stochastic decisions flow from
/// the Rng the caller passes in (one stream per island).
class Population {
  public:
    /// \p base and \p params must outlive the population.
    Population(const ir::Module& base, const EvolutionParams& params);

    /// Fill with populationSize single-mutation variants of the base
    /// program (GEVO's seeding recipe).
    void seed(Rng& rng);

    std::vector<Individual>& members() { return members_; }
    const std::vector<Individual>& members() const { return members_; }
    std::size_t size() const { return members_.size(); }

    /// Order members best-first. Scalar mode: stable sort ascending by
    /// fitness.ms() (invalid = +inf sinks to the back) — bit-identical
    /// to the historical single-scalar sort. Pareto mode: NSGA-II order
    /// (rank ascending, crowding descending, canonical edit-list key
    /// ascending; invalid members last). Both sort index proxies, then
    /// apply the permutation, so each Individual moves exactly once
    /// instead of being copied per swap.
    void sortByFitness();

    /// Best member. \pre sorted. In Pareto mode this is the head of the
    /// NSGA-II order (a non-dominated member), not the scalar minimum.
    const Individual& best() const { return members_.front(); }

    /// Replace the members with the next generation: elitism, tournament
    /// selection, one-point crossover, append/drop mutation. \pre sorted.
    void breedNext(Rng& rng);

    /// Copies of the top \p count members (migration outbox). \pre sorted.
    std::vector<Individual> emigrants(std::uint32_t count) const;

    /// Replace the worst members with \p migrants (already evaluated on
    /// the sending island; fitness is island-independent so it transfers).
    /// With params.fitnessAwareMigrants, each migrant only takes its slot
    /// when strictly fitter than the resident it would evict. Leaves the
    /// population sorted.
    void receiveMigrants(const std::vector<Individual>& migrants);

    /// Install the edit-sampling strategy (non-owning; must outlive the
    /// population). nullptr = the legacy free-function path, which is
    /// draw-for-draw what UniformSampler does.
    void setSampler(const mut::MutationSampler* sampler)
    {
        sampler_ = sampler;
    }

    /// This population's own operator rates — seeded from params.sampler,
    /// perturbed by the engine's self-adaptive machinery, restored from
    /// checkpoints. All sampling goes through these, so the default path
    /// (rates == params.sampler, never touched) is unchanged.
    mut::SamplerConfig& rates() { return rates_; }
    const mut::SamplerConfig& rates() const { return rates_; }

  private:
    const Individual& tournament(Rng& rng) const;
    /// Selection's "a beats b": FitnessResult::better in Scalar mode,
    /// NSGA-II list position in Pareto mode (\pre sorted, and both must
    /// point into members_). Identical RNG consumption either way.
    bool beats(const Individual& a, const Individual& b) const;
    void sortPareto();
    void mutate(Individual* ind, Rng& rng);
    std::optional<mut::Edit> sampleOne(const ir::Module& mod,
                                       Rng& rng) const;

    const ir::Module& base_;
    const EvolutionParams& params_;
    const mut::MutationSampler* sampler_ = nullptr;
    mut::SamplerConfig rates_;
    std::vector<Individual> members_;
};

} // namespace gevo::core

#endif // GEVO_CORE_POPULATION_H
