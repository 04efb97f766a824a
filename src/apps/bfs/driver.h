/// \file
/// Host-side BFS driver: uploads the CSR graph, seeds the distance array
/// with `bfs_init`, then launches `bfs_level` once per level until a
/// launch discovers nothing (the level-synchronous loop), reading the
/// discovery counter back between launches. The level loop is capped at
/// the node count so a mutated kernel that keeps "discovering" cannot
/// hang an evaluation. The arena is sized to the allocation plan;
/// \p tightArena drops the slack (held-out regime).

#ifndef GEVO_APPS_BFS_DRIVER_H
#define GEVO_APPS_BFS_DRIVER_H

#include <vector>

#include "apps/bfs/kernels.h"
#include "core/app.h"
#include "sim/device_config.h"
#include "sim/executor.h"

namespace gevo::bfs {

/// Output of a full traversal.
struct BfsRunOutput : core::RunOutput {
    std::vector<std::int32_t> dist; ///< Final distances (empty on fault).
    std::int32_t levels = 0;        ///< Frontier launches that ran.
};

/// Immutable graph + launch configuration; thread-safe (each run() owns
/// its memory).
class BfsDriver {
  public:
    explicit BfsDriver(BfsConfig config, bool tightArena = false);

    /// Execute the pre-decoded kernels (scoring stage of the two-stage
    /// pipeline; no IR access, no decoding).
    BfsRunOutput run(const sim::ProgramSet& programs,
                     const sim::DeviceConfig& dev,
                     bool profile = false) const;

    /// Convenience: decode \p module and run it (one-off callers).
    BfsRunOutput run(const ir::Module& module,
                     const sim::DeviceConfig& dev,
                     bool profile = false) const;

    /// CPU ground-truth distances (computed once).
    const std::vector<std::int32_t>& expected() const { return expected_; }
    const CsrGraph& graph() const { return graph_; }
    const BfsConfig& config() const { return config_; }

    /// Every node's distance must match the CPU BFS.
    std::string check(const BfsRunOutput& out) const;
    std::string label(const sim::DeviceConfig& dev) const;

  private:
    /// Timing-grid multiplier (saturated-device regime).
    static constexpr std::uint32_t kOversubscribe = 512;

    BfsConfig config_;
    bool tightArena_;
    CsrGraph graph_;
    std::vector<std::int32_t> expected_;
};

/// Scores a variant by total simulated kernel time; any fault or any
/// distance mismatch against the CPU BFS invalidates it.
using BfsFitness = core::DriverFitness<BfsDriver>;

} // namespace gevo::bfs

#endif // GEVO_APPS_BFS_DRIVER_H
