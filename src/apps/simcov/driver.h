/// \file
/// Host-side SIMCoV driver: allocates the grids, runs the per-step kernel
/// sequence, swaps the double buffers, and collects the statistics series.
///
/// Allocation order matters (DESIGN.md §2 / paper Sec VI-D): the
/// `chemokine` grid is the last allocation, so a boundary-check-free
/// stencil's worst overrun (4*(W+1) bytes past the array) lands in mapped
/// page slack on a roomy arena (small fitness grids pass) but past the
/// mapped end when the arena is sized tightly to the problem — the
/// held-out large-grid configuration — where it faults, exactly like the
/// paper's 2500x2500 segfault.

#ifndef GEVO_APPS_SIMCOV_DRIVER_H
#define GEVO_APPS_SIMCOV_DRIVER_H

#include "apps/simcov/config.h"
#include "apps/simcov/kernels.h"
#include "core/app.h"
#include "sim/device_config.h"
#include "sim/executor.h"

namespace gevo::simcov {

/// Output of a full simulation run.
struct SimcovRunOutput : core::RunOutput {
    TimeSeries series;
};

/// Immutable run configuration; thread-safe (each run() owns its memory).
class SimcovDriver {
  public:
    /// \p tightArena sizes device memory exactly to the allocations
    /// (the held-out large-grid regime).
    SimcovDriver(SimcovConfig config, bool padded = false,
                 bool tightArena = false);

    /// Execute the pre-decoded kernels over the configured run (scoring
    /// stage of the two-stage pipeline; no IR access, no decoding).
    SimcovRunOutput run(const sim::ProgramSet& programs,
                        const sim::DeviceConfig& dev,
                        bool profile = false) const;

    /// Convenience: decode \p module's kernels and run them (one-off
    /// callers; the hot path compiles once and uses the overload above).
    SimcovRunOutput run(const ir::Module& module,
                        const sim::DeviceConfig& dev,
                        bool profile = false) const;

    /// CPU ground-truth series (computed once; identical for the padded
    /// layout by construction).
    const TimeSeries& expected() const { return expected_; }

    const SimcovConfig& config() const { return config_; }
    bool padded() const { return padded_; }

    /// The series must stay within kSeriesTolerance of the ground truth.
    std::string check(const SimcovRunOutput& out) const;
    std::string label(const sim::DeviceConfig& dev) const;

  private:
    /// Timing-grid multiplier (saturated-device regime; the paper's
    /// production grids are 2500x2500).
    static constexpr std::uint32_t kOversubscribe = 512;

    SimcovConfig config_;
    bool padded_;
    bool tightArena_;
    TimeSeries expected_;
};

/// Scores a module variant by total simulated kernel time; any fault or
/// out-of-tolerance series invalidates it.
using SimcovFitness = core::DriverFitness<SimcovDriver>;

} // namespace gevo::simcov

#endif // GEVO_APPS_SIMCOV_DRIVER_H
