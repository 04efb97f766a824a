/// \file
/// Host-side stencil driver: uploads the initial grid, runs the Jacobi
/// kernel for the configured number of steps over ping-pong buffers, and
/// reads back the final grid. The arena is sized to the allocation plan
/// (two grids plus fixed slack); \p tightArena drops the slack — the
/// held-out regime where a variant that reads past its arrays faults
/// instead of seeing page slack.

#ifndef GEVO_APPS_STENCIL_DRIVER_H
#define GEVO_APPS_STENCIL_DRIVER_H

#include <vector>

#include "apps/stencil/kernels.h"
#include "core/app.h"
#include "sim/device_config.h"
#include "sim/executor.h"

namespace gevo::stencil {

/// Output of a full multi-step run.
struct StencilRunOutput : core::RunOutput {
    std::vector<float> grid; ///< Final grid (empty on fault).
};

/// Immutable run configuration; thread-safe (each run() owns its memory).
class StencilDriver {
  public:
    explicit StencilDriver(StencilConfig config, bool tightArena = false);

    /// Execute the pre-decoded kernel over the configured run (scoring
    /// stage of the two-stage pipeline; no IR access, no decoding).
    StencilRunOutput run(const sim::ProgramSet& programs,
                         const sim::DeviceConfig& dev,
                         bool profile = false) const;

    /// Convenience: decode \p module and run it (one-off callers).
    StencilRunOutput run(const ir::Module& module,
                         const sim::DeviceConfig& dev,
                         bool profile = false) const;

    /// CPU ground-truth final grid (computed once).
    const std::vector<float>& expected() const { return expected_; }
    const StencilConfig& config() const { return config_; }

    /// Every final-grid cell must match bit for bit.
    std::string check(const StencilRunOutput& out) const;
    std::string label(const sim::DeviceConfig& dev) const;

  private:
    /// Timing-grid multiplier (saturated-device regime).
    static constexpr std::uint32_t kOversubscribe = 512;

    StencilConfig config_;
    bool tightArena_;
    std::vector<float> initial_;
    std::vector<float> expected_;
};

/// Scores a variant by total simulated kernel time; any fault or any
/// final-grid value mismatch (bit-exact: the CPU reference replicates the
/// kernel's float order) invalidates it.
using StencilFitness = core::DriverFitness<StencilDriver>;

} // namespace gevo::stencil

#endif // GEVO_APPS_STENCIL_DRIVER_H
