#include "apps/bfs/workload.h"

#include <algorithm>
#include <memory>

#include "apps/bfs/driver.h"
#include "core/workload.h"
#include "support/strings.h"

namespace gevo::bfs {

namespace {

class BfsWorkloadInstance
    : public core::DriverInstance<BfsModule, BfsDriver> {
  public:
    explicit BfsWorkloadInstance(const core::WorkloadConfig& config)
        : DriverInstance(buildBfs(makeConfig(config)), config.device,
                         [](const BfsModule& built) {
                             return BfsDriver(built.config);
                         })
    {
    }

    std::string
    banner() const override
    {
        std::int32_t reached = 0;
        std::int32_t depth = 0;
        for (const auto d : driver_.expected()) {
            if (d >= 0) {
                ++reached;
                depth = std::max(depth, d);
            }
        }
        return strformat("%d nodes, degree %d CSR graph; %d reachable "
                         "from node %d, depth %d",
                         built_.config.nodes, built_.config.degree,
                         reached, built_.config.source, depth);
    }

    std::vector<mut::Edit>
    goldenEdits() const override
    {
        return editsOf(allGoldenEdits(built_));
    }

    /// Held-out validation on a 4x graph with a tightly sized arena: a
    /// variant that traverses past its adjacency arrays passes the small
    /// fitness graph (page slack) but faults here, and every distance
    /// must still match the CPU BFS.
    std::optional<std::string>
    validateBest(const std::vector<mut::Edit>& edits) const override
    {
        BfsConfig big = built_.config;
        big.nodes = built_.config.nodes * 4;
        return heldOut(buildBfs(big).module,
                       BfsDriver(big, /*tightArena=*/true), edits,
                       strformat("%d-node", big.nodes));
    }

  private:
    static BfsConfig
    makeConfig(const core::WorkloadConfig& config)
    {
        BfsConfig cfg;
        cfg.nodes =
            static_cast<std::int32_t>(config.knobInt("nodes", 256));
        cfg.degree =
            static_cast<std::int32_t>(config.knobInt("degree", 8));
        cfg.seed =
            static_cast<std::uint64_t>(config.knobInt("graph-seed", 11));
        return cfg;
    }
};

} // namespace

void
registerWorkloads()
{
    core::Workload w;
    w.name = "bfs";
    w.summary = "level-synchronous frontier BFS over a fixed CSR graph "
                "(divergent, data-dependent traversal)";
    w.knobs = {
        {"nodes", 256, "node count; multiple of the block size (64)"},
        {"degree", 8, "out-degree per node"},
        {"graph-seed", 11, "graph generation seed"},
    };
    w.searchDefaults.populationSize = 12;
    w.searchDefaults.generations = 8;
    w.searchDefaults.elitism = 2;
    w.searchDefaults.seed = 13;
    w.searchDefaults.cacheSaveInterval = 10;
    w.benchDefaults.populationSize = 12;
    w.benchDefaults.generations = 8;
    w.benchDefaults.elitism = 2;
    w.benchDefaults.seed = 3;
    w.benchKnobs = {{"nodes", "128"}, {"degree", "6"}};
    w.variabilityRuns = 2;
    w.variabilityGens = 6;
    w.variabilityPop = 10;
    w.make = [](const core::WorkloadConfig& config) {
        return std::unique_ptr<core::WorkloadInstance>(
            new BfsWorkloadInstance(config));
    };
    core::WorkloadRegistry::instance().add(std::move(w));
}

} // namespace gevo::bfs
