/// \file
/// Population structure of the search: how many islands evolve in
/// parallel and when/where individuals migrate between them.
///
/// The engine asks the topology for the island count and, after each
/// generation, for the migration edges to apply. Every topology is
/// deterministic — migration needs no RNG draws, which keeps per-island
/// streams independent of the topology choice.

#ifndef GEVO_CORE_TOPOLOGY_H
#define GEVO_CORE_TOPOLOGY_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/params.h"

namespace gevo::core {

/// One directed migrant transfer: copies of islands[from]'s best replace
/// islands[to]'s worst.
struct MigrationEdge {
    std::uint32_t from = 0;
    std::uint32_t to = 0;
};

/// The topology implied by EvolutionParams::topology, islands and
/// migrationInterval:
///
/// - Panmictic: the paper's single population, no migration. Fatal with
///   islands > 1.
/// - Ring: island i sends its best to island (i+1) % N.
/// - Torus: islands on a rows x cols grid (rows the largest divisor of N
///   at most sqrt(N)); each sends its best to its right and down
///   neighbors (wrapping). Two out-edges per island, so good genotypes
///   spread in O(sqrt(N)) migrations instead of O(N).
/// - Star: island 0 is the hub; each spoke sends its best to the hub,
///   then the hub broadcasts its best to every spoke. Pair with
///   fitnessAwareMigrants so a weak spoke cannot overwrite hub elites.
/// - Auto: panmictic when islands <= 1, else a ring.
///
/// Migration fires every `interval` generations — the first after
/// generation `interval`, never after generation 0 (the seed population
/// has not evolved yet). Interval 0 disables it (fully isolated islands,
/// equivalent to N independent runs sharing the evaluation pipeline and
/// caches); one island never migrates.
class Topology {
  public:
    explicit Topology(const EvolutionParams& params);

    /// Number of islands (>= 1).
    std::uint32_t islandCount() const { return islands_; }

    /// Grid shape; a torus's rows x cols, else 1 x islandCount().
    std::uint32_t rows() const { return rows_; }
    std::uint32_t cols() const { return cols_; }

    /// Migration edges to apply after generation \p gen has been evaluated
    /// and sorted (empty = no migration this generation). All edges of one
    /// generation draw emigrants from pre-migration snapshots; receivers
    /// take them in edge order.
    std::vector<MigrationEdge> migrationsAfter(std::uint32_t gen) const;

    /// Short description for logs/banners.
    std::string describe() const;

  private:
    TopologyKind kind_; ///< Never Auto: resolved at construction.
    std::uint32_t islands_;
    std::uint32_t interval_;
    std::uint32_t rows_ = 1;
    std::uint32_t cols_;
};

} // namespace gevo::core

#endif // GEVO_CORE_TOPOLOGY_H
