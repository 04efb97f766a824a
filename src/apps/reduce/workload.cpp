#include "apps/reduce/workload.h"

#include <algorithm>
#include <memory>

#include "apps/reduce/driver.h"
#include "core/workload.h"
#include "support/strings.h"

namespace gevo::reduce {

namespace {

class ReduceWorkloadInstance
    : public core::DriverInstance<ReduceModule, ReduceDriver> {
  public:
    explicit ReduceWorkloadInstance(const core::WorkloadConfig& config)
        : DriverInstance(buildReduce(makeConfig(config)), config.device,
                         [](const ReduceModule& built) {
                             return ReduceDriver(built.config);
                         })
    {
    }

    std::string
    banner() const override
    {
        return strformat("%d elements x %d datasets, %d partial blocks, "
                         "shared-memory + warp-shuffle tree",
                         built_.config.elems, built_.config.inputs,
                         built_.config.numBlocks());
    }

    std::vector<mut::Edit>
    goldenEdits() const override
    {
        return editsOf(allGoldenEdits(built_));
    }

    /// Held-out validation at a larger input with a tightly sized arena:
    /// no fault, and every partial and total exact.
    std::optional<std::string>
    validateBest(const std::vector<mut::Edit>& edits) const override
    {
        // Double the configured input (the kernel structure caps the
        // supported length, so a maxed-out fitness scale degrades to a
        // tight-arena re-run at the same size).
        ReduceConfig big = built_.config;
        big.elems = std::min(built_.config.elems * 2, 16384);
        big.inputs = 1;
        return heldOut(buildReduce(big).module,
                       ReduceDriver(big, /*tightArena=*/true), edits,
                       strformat("%d-element", big.elems));
    }

  private:
    static ReduceConfig
    makeConfig(const core::WorkloadConfig& config)
    {
        ReduceConfig cfg;
        cfg.elems =
            static_cast<std::int32_t>(config.knobInt("elems", 8192));
        cfg.inputs =
            static_cast<std::int32_t>(config.knobInt("inputs", 2));
        cfg.seed =
            static_cast<std::uint64_t>(config.knobInt("data-seed", 21));
        return cfg;
    }
};

} // namespace

void
registerWorkloads()
{
    core::Workload w;
    w.name = "reduce";
    w.summary = "tree reduction, shared-memory stage + warp-shuffle "
                "finish (ballot/shfl/activemask on the hot path)";
    w.knobs = {
        {"elems", 8192, "input length; multiple of 128, at most 16384"},
        {"inputs", 2, "independent datasets per evaluation"},
        {"data-seed", 21, "dataset generation seed"},
    };
    w.searchDefaults.populationSize = 12;
    w.searchDefaults.generations = 8;
    w.searchDefaults.elitism = 2;
    w.searchDefaults.seed = 9;
    w.searchDefaults.cacheSaveInterval = 10;
    w.benchDefaults.populationSize = 12;
    w.benchDefaults.generations = 8;
    w.benchDefaults.elitism = 2;
    w.benchDefaults.seed = 3;
    w.benchKnobs = {{"elems", "2048"}, {"inputs", "1"}};
    w.variabilityRuns = 2;
    w.variabilityGens = 6;
    w.variabilityPop = 10;
    w.make = [](const core::WorkloadConfig& config) {
        return std::unique_ptr<core::WorkloadInstance>(
            new ReduceWorkloadInstance(config));
    };
    core::WorkloadRegistry::instance().add(std::move(w));
}

} // namespace gevo::reduce
