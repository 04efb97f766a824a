#include "core/topology.h"

#include "support/logging.h"
#include "support/strings.h"

namespace gevo::core {

Topology::Topology(const EvolutionParams& params)
    : kind_(params.topology), islands_(params.islands),
      interval_(params.migrationInterval)
{
    if (kind_ == TopologyKind::Auto)
        kind_ = islands_ <= 1 ? TopologyKind::Panmictic : TopologyKind::Ring;
    if (kind_ == TopologyKind::Panmictic) {
        if (islands_ > 1)
            GEVO_FATAL("topology 'panmictic' is a single population; "
                       "got islands=%u (use ring/torus/star, or islands=1)",
                       islands_);
        islands_ = 1;
    }
    GEVO_ASSERT(islands_ >= 1, "topology needs at least one island");
    if (kind_ == TopologyKind::Torus) {
        // Largest divisor of N at most sqrt(N) -> the most square grid.
        for (std::uint32_t r = 1; r * r <= islands_; ++r) {
            if (islands_ % r == 0)
                rows_ = r;
        }
    }
    cols_ = islands_ / rows_;
}

std::vector<MigrationEdge>
Topology::migrationsAfter(std::uint32_t gen) const
{
    // gen 0 is the seed population: `gen % interval_ == 0` alone would
    // fire a migration there, one full interval before the documented
    // "every N generations" (first at gen == interval).
    if (islands_ < 2 || interval_ == 0 || gen == 0 || gen % interval_ != 0)
        return {};
    std::vector<MigrationEdge> edges;
    switch (kind_) {
    case TopologyKind::Auto:
    case TopologyKind::Panmictic:
        break;
    case TopologyKind::Ring:
        for (std::uint32_t i = 0; i < islands_; ++i)
            edges.push_back({i, (i + 1) % islands_});
        break;
    case TopologyKind::Torus:
        for (std::uint32_t i = 0; i < islands_; ++i) {
            const std::uint32_t r = i / cols_;
            const std::uint32_t c = i % cols_;
            const std::uint32_t right = r * cols_ + (c + 1) % cols_;
            const std::uint32_t down = ((r + 1) % rows_) * cols_ + c;
            if (right != i)
                edges.push_back({i, right});
            // A 1-row torus degenerates to the ring; skip the
            // self/duplicate down edge it would produce.
            if (down != i && down != right)
                edges.push_back({i, down});
        }
        break;
    case TopologyKind::Star:
        for (std::uint32_t i = 1; i < islands_; ++i)
            edges.push_back({i, 0}); // spokes feed the hub
        for (std::uint32_t i = 1; i < islands_; ++i)
            edges.push_back({0, i}); // hub broadcasts (pre-migration snapshot)
        break;
    }
    return edges;
}

std::string
Topology::describe() const
{
    if (kind_ == TopologyKind::Panmictic)
        return "panmictic";
    if (interval_ == 0)
        return strformat("%u isolated islands", islands_);
    if (kind_ == TopologyKind::Torus)
        return strformat("%ux%u-island torus, migration every %u "
                         "generations",
                         rows_, cols_, interval_);
    if (kind_ == TopologyKind::Star)
        return strformat("%u-island star (hub 0), migration every %u "
                         "generations",
                         islands_, interval_);
    return strformat("%u-island ring, migration every %u generations",
                     islands_, interval_);
}

} // namespace gevo::core
