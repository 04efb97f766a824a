#include "apps/adept/workload.h"

#include <memory>

#include "apps/adept/driver.h"
#include "apps/adept/golden_edits.h"
#include "apps/adept/sequences.h"
#include "core/workload.h"
#include "support/strings.h"

namespace gevo::adept {

namespace {

/// Self-owning instance: dataset, driver, oracle and fitness live exactly
/// as long as the search that uses them. ADEPT has no held-out re-run:
/// the boundary-probe pairs ride along in the fitness set instead.
class AdeptWorkloadInstance
    : public core::DriverInstance<AdeptModule, AdeptDriver> {
  public:
    AdeptWorkloadInstance(int version, const core::WorkloadConfig& config)
        : DriverInstance(buildAdept(version, ScoringParams{}, kMaxThreads),
                         config.device,
                         [&](const AdeptModule& built) {
                             return AdeptDriver(makePairs(config),
                                                built.scoring, version,
                                                kMaxThreads);
                         })
    {
        // One block per alignment pair, and the unmodified kernels'
        // blocks touch only their own pair's bytes: every launch runs its
        // blocks speculatively on idle cores. A mutant whose blocks do
        // meet re-runs serially from the first conflicting block, so
        // fitness is the serial launch's bit for bit
        // (sim::LaunchDims::blockThreads).
        driver_.setBlockThreads(
            static_cast<std::uint32_t>(driver_.pairs().size()));
    }

    std::string
    banner() const override
    {
        return strformat("%zu pairs, %zu IR instructions across %zu "
                         "kernels",
                         driver_.pairs().size(), built_.module.instrCount(),
                         built_.module.numFunctions());
    }

    std::vector<mut::Edit>
    goldenEdits() const override
    {
        return editsOf(built_.version == 0 ? v0GoldenEdits(built_)
                                           : v1AllGoldenEdits(built_));
    }

    double
    paperCeiling() const override
    {
        // Paper Figure 4: GEVO-optimized ADEPT-V1 reaches 1.28x on P100;
        // V0's ceiling is dominated by the Sec VI-C memset kill and the
        // paper reports it as ">30x", not a single figure.
        return built_.version == 1 ? 1.28 : 0.0;
    }

  private:
    static constexpr std::uint32_t kMaxThreads = 64;

    static std::vector<SequencePair>
    makePairs(const core::WorkloadConfig& config)
    {
        SequenceSetConfig cfg;
        cfg.numPairs =
            static_cast<std::size_t>(config.knobInt("pairs", 5));
        cfg.minLen = static_cast<std::size_t>(config.knobInt("min-len", 40));
        cfg.maxLen = static_cast<std::size_t>(config.knobInt("max-len", 64));
        cfg.seed = static_cast<std::uint64_t>(config.knobInt("data-seed", 7));
        auto pairs = generatePairs(cfg);
        // The held-out discipline of paper Sec III-C: warp-boundary probe
        // lengths ride along with every dataset.
        appendBoundaryProbePairs(&pairs, cfg.maxLen, cfg.seed);
        return pairs;
    }
};

core::Workload
makeWorkload(int version)
{
    core::Workload w;
    w.name = version == 0 ? "adept-v0" : "adept-v1";
    w.summary = version == 0
                    ? "ADEPT Smith-Waterman, naive port (the Sec VI-C "
                      "memset-loop bottleneck)"
                    : "ADEPT Smith-Waterman, hand-tuned forward+reverse "
                      "kernels (paper Fig. 9)";
    w.knobs = {
        {"pairs", 5, "related DNA pairs in the fitness set"},
        {"min-len", 40, "minimum sequence length"},
        {"max-len", 64, "maximum sequence length (<= 64)"},
        {"data-seed", 7, "dataset generation seed"},
    };
    w.searchDefaults.populationSize = 24;
    w.searchDefaults.generations = 25;
    w.searchDefaults.elitism = 2;
    w.searchDefaults.seed = 7;
    // Inert without --cache-path; with one, a killed long run still
    // warm-starts from its last interval.
    w.searchDefaults.cacheSaveInterval = 10;
    // The ROADMAP perf-anchor configuration (bench/throughput.cpp).
    w.benchDefaults.populationSize = 12;
    w.benchDefaults.generations = 20;
    w.benchDefaults.elitism = 2;
    w.benchDefaults.seed = 3;
    w.benchKnobs = {{"pairs", "4"}};
    w.variabilityRuns = 3;
    w.variabilityGens = 12;
    w.variabilityPop = 16;
    w.variabilityKnobs = {{"pairs", "4"}}; // historical Fig. 6 dataset
    w.make = [version](const core::WorkloadConfig& config) {
        return std::unique_ptr<core::WorkloadInstance>(
            new AdeptWorkloadInstance(version, config));
    };
    return w;
}

} // namespace

void
registerWorkloads()
{
    auto& registry = core::WorkloadRegistry::instance();
    registry.add(makeWorkload(0));
    registry.add(makeWorkload(1));
}

} // namespace gevo::adept
