#include "apps/stencil/workload.h"

#include <memory>

#include "apps/stencil/driver.h"
#include "core/workload.h"
#include "support/strings.h"

namespace gevo::stencil {

namespace {

class StencilWorkloadInstance
    : public core::DriverInstance<StencilModule, StencilDriver> {
  public:
    explicit StencilWorkloadInstance(const core::WorkloadConfig& config)
        : DriverInstance(buildStencil(makeConfig(config)), config.device,
                         [](const StencilModule& built) {
                             return StencilDriver(built.config);
                         })
    {
    }

    std::string
    banner() const override
    {
        return strformat("%dx%d grid, %d Jacobi steps, block tile %u+2 "
                         "floats in shared memory",
                         built_.config.gridW, built_.config.gridW,
                         built_.config.steps, built_.config.blockDim);
    }

    std::vector<mut::Edit>
    goldenEdits() const override
    {
        return editsOf(allGoldenEdits(built_));
    }

    /// Held-out validation on a larger grid with a tightly sized arena:
    /// a variant whose speedup comes from dropping a load out of bounds
    /// passes the small fitness grid (page slack) but faults here, and
    /// every cell must still match the CPU reference.
    std::optional<std::string>
    validateBest(const std::vector<mut::Edit>& edits) const override
    {
        // Scale relative to the configured fitness grid so the check is
        // a genuine enlargement at every knob setting.
        StencilConfig big = built_.config;
        big.gridW = built_.config.gridW * 2;
        big.steps = 2;
        return heldOut(buildStencil(big).module,
                       StencilDriver(big, /*tightArena=*/true), edits,
                       strformat("%dx%d", big.gridW, big.gridW));
    }

  private:
    static StencilConfig
    makeConfig(const core::WorkloadConfig& config)
    {
        StencilConfig cfg;
        cfg.gridW = static_cast<std::int32_t>(config.knobInt("grid", 32));
        cfg.steps = static_cast<std::int32_t>(config.knobInt("steps", 4));
        return cfg;
    }
};

} // namespace

void
registerWorkloads()
{
    core::Workload w;
    w.name = "stencil";
    w.summary = "2D 5-point Jacobi heat step, block-tiled shared-memory "
                "stencil (regular, memory-bound)";
    w.knobs = {
        {"grid", 32, "square grid side; grid*grid must divide by the "
                     "block size (64)"},
        {"steps", 4, "Jacobi iterations (fitness scale)"},
    };
    w.searchDefaults.populationSize = 12;
    w.searchDefaults.generations = 8;
    w.searchDefaults.elitism = 2;
    w.searchDefaults.seed = 5;
    w.searchDefaults.cacheSaveInterval = 10;
    w.benchDefaults.populationSize = 12;
    w.benchDefaults.generations = 8;
    w.benchDefaults.elitism = 2;
    w.benchDefaults.seed = 3;
    w.benchKnobs = {{"grid", "16"}, {"steps", "3"}};
    w.variabilityRuns = 2;
    w.variabilityGens = 6;
    w.variabilityPop = 10;
    w.make = [](const core::WorkloadConfig& config) {
        return std::unique_ptr<core::WorkloadInstance>(
            new StencilWorkloadInstance(config));
    };
    core::WorkloadRegistry::instance().add(std::move(w));
}

} // namespace gevo::stencil
