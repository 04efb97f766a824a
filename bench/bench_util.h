/// \file
/// Shared scaffolding for the per-figure bench binaries: canonical scaled
/// datasets (flag-overridable) and evaluation shorthand.
///
/// Every binary prints the paper's corresponding table/figure rows with
/// our measured values next to the paper's. Scaled-down defaults keep
/// `for b in build/bench/*; do $b; done` quick; flags (--pairs, --gens,
/// --runs, ...) and GEVO_* env vars reach full-size runs.

#ifndef GEVO_BENCH_BENCH_UTIL_H
#define GEVO_BENCH_BENCH_UTIL_H

#include <cstdio>

#include "apps/adept/driver.h"
#include "apps/adept/golden_edits.h"
#include "apps/simcov/driver.h"
#include "apps/simcov/golden_edits.h"
#include "core/engine.h"
#include "core/fitness.h"
#include "core/workload.h"
#include "support/flags.h"
#include "support/strings.h"
#include "support/table.h"

namespace gevo::bench {

/// Canonical ADEPT dataset: related pairs plus the warp-boundary probes.
inline std::vector<adept::SequencePair>
adeptPairs(const Flags& flags, std::size_t numPairs = 8)
{
    adept::SequenceSetConfig cfg;
    cfg.numPairs = static_cast<std::size_t>(
        flags.getInt("pairs", static_cast<std::int64_t>(numPairs)));
    cfg.minLen = 40;
    cfg.maxLen = 64;
    cfg.seed = static_cast<std::uint64_t>(flags.getInt("data-seed", 7));
    auto pairs = adept::generatePairs(cfg);
    adept::appendBoundaryProbePairs(&pairs, cfg.maxLen, cfg.seed);
    return pairs;
}

/// Canonical (scaled) SIMCoV fitness configuration.
inline simcov::SimcovConfig
simcovConfig(const Flags& flags)
{
    simcov::SimcovConfig cfg;
    cfg.gridW = static_cast<std::int32_t>(flags.getInt("grid", 32));
    cfg.steps = static_cast<std::int32_t>(flags.getInt("steps", 30));
    cfg.seed = static_cast<std::uint64_t>(flags.getInt("sim-seed", 1337));
    return cfg;
}

/// Parse and validate a `--workloads=a,b,c` list against the registry
/// (fatal — with the registered set listed — on unknown names, empty
/// entries, or an empty list). \p def is the bench's default set; when
/// empty, the default is every registered workload.
inline std::vector<std::string>
workloadList(const Flags& flags, const core::WorkloadRegistry& registry,
             const std::string& def = {})
{
    std::string fallback = def;
    if (fallback.empty()) {
        for (const auto& name : registry.names())
            fallback += (fallback.empty() ? "" : ",") + name;
    }
    return registry.resolveList(flags.getString("workloads", fallback));
}

/// Evaluate an edit set; fatal when unexpectedly invalid.
inline double
msOf(const ir::Module& base, const std::vector<mut::Edit>& edits,
     const core::FitnessFunction& fitness, const char* what)
{
    const auto r = core::evaluateVariant(base, edits, fitness);
    if (!r.valid)
        GEVO_FATAL("%s unexpectedly invalid: %s", what,
                   r.failReason.c_str());
    return r.ms();
}

/// Print a bench banner.
inline void
banner(const char* title, const char* paperRef)
{
    std::printf("==================================================\n");
    std::printf("%s\n", title);
    std::printf("(reproduces %s)\n", paperRef);
    std::printf("==================================================\n");
}

} // namespace gevo::bench

#endif // GEVO_BENCH_BENCH_UTIL_H
