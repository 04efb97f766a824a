#include "apps/simcov/workload.h"

#include <memory>

#include "apps/simcov/driver.h"
#include "apps/simcov/golden_edits.h"
#include "core/workload.h"
#include "support/strings.h"

namespace gevo::simcov {

namespace {

class SimcovWorkloadInstance
    : public core::DriverInstance<SimcovModule, SimcovDriver> {
  public:
    explicit SimcovWorkloadInstance(const core::WorkloadConfig& config)
        : DriverInstance(buildSimcov(makeConfig(config)), config.device,
                         [](const SimcovModule& built) {
                             return SimcovDriver(built.config);
                         })
    {
    }

    std::string
    banner() const override
    {
        const auto& truth = driver_.expected();
        return strformat("%dx%d grid, %d steps, %zu kernels; ground truth "
                         "at final step: %.1f virions, %d T cells, %d dead",
                         built_.config.gridW, built_.config.gridW,
                         built_.config.steps, built_.module.numFunctions(),
                         static_cast<double>(truth.back().totalVirions),
                         truth.back().tcells, truth.back().dead);
    }

    std::vector<mut::Edit>
    goldenEdits() const override
    {
        return editsOf(allGoldenEdits(built_));
    }

    double
    paperCeiling() const override
    {
        return 1.29; // Paper Fig. 5: SIMCoV-GEVO on P100.
    }

    /// Held-out validation on a larger, memory-tight grid — the paper's
    /// Sec VI-D defence against variants (dropped boundary checks) that
    /// only look correct at fitness scale.
    std::optional<std::string>
    validateBest(const std::vector<mut::Edit>& edits) const override
    {
        SimcovConfig big = built_.config;
        big.gridW = 96;
        big.steps = 2;
        return heldOut(buildSimcov(big).module,
                       SimcovDriver(big, false, /*tightArena=*/true), edits,
                       strformat("%dx%d", big.gridW, big.gridW));
    }

  private:
    static SimcovConfig
    makeConfig(const core::WorkloadConfig& config)
    {
        SimcovConfig cfg;
        cfg.gridW = static_cast<std::int32_t>(config.knobInt("grid", 32));
        cfg.steps = static_cast<std::int32_t>(config.knobInt("steps", 16));
        cfg.seed =
            static_cast<std::uint64_t>(config.knobInt("sim-seed", 1337));
        return cfg;
    }
};

} // namespace

void
registerWorkloads()
{
    core::Workload w;
    w.name = "simcov";
    w.summary = "SIMCoV epidemic simulation, 8 kernels, tolerance-based "
                "stochastic fitness (paper Sec II-C)";
    w.knobs = {
        {"grid", 32, "square grid side; grid*grid must divide by the "
                     "block size (128)"},
        {"steps", 16, "simulation steps (fitness scale)"},
        {"sim-seed", 1337, "per-cell RNG seed"},
    };
    w.searchDefaults.populationSize = 12;
    w.searchDefaults.generations = 8;
    w.searchDefaults.elitism = 2;
    w.searchDefaults.seed = 3;
    // Inert without --cache-path; with one, a killed long run still
    // warm-starts from its last interval.
    w.searchDefaults.cacheSaveInterval = 10;
    // The bench scale (bench/discovery_quality, test_variant_cache).
    w.benchDefaults.populationSize = 12;
    w.benchDefaults.generations = 8;
    w.benchDefaults.elitism = 2;
    w.benchDefaults.seed = 3;
    w.benchKnobs = {{"grid", "16"}, {"steps", "6"}};
    w.variabilityRuns = 2;
    w.variabilityGens = 6;
    w.variabilityPop = 10;
    // Fig. 6 runs at the workload's own fitness scale (32x32, 16 steps),
    // not the bench scale's scaled-down grid.
    w.variabilityKnobs = {};
    w.make = [](const core::WorkloadConfig& config) {
        return std::unique_ptr<core::WorkloadInstance>(
            new SimcovWorkloadInstance(config));
    };
    core::WorkloadRegistry::instance().add(std::move(w));
}

} // namespace gevo::simcov
