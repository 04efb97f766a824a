/// \file
/// Host-side reduction driver: uploads each dataset, launches the
/// per-block partial kernel then the single-block final kernel, and reads
/// back both the partial sums and the total. The arena is sized to the
/// allocation plan; \p tightArena drops the slack (held-out regime).

#ifndef GEVO_APPS_REDUCE_DRIVER_H
#define GEVO_APPS_REDUCE_DRIVER_H

#include <vector>

#include "apps/reduce/kernels.h"
#include "core/app.h"
#include "sim/device_config.h"
#include "sim/executor.h"

namespace gevo::reduce {

/// Output of one full run (all datasets).
struct ReduceRunOutput : core::RunOutput {
    /// Per-dataset per-block partial sums (as `rd_partial` left them).
    std::vector<std::vector<std::uint32_t>> partials;
    std::vector<std::uint32_t> totals; ///< Per-dataset final sums.
};

/// Immutable datasets + launch configuration; thread-safe (each run()
/// owns its memory).
class ReduceDriver {
  public:
    explicit ReduceDriver(ReduceConfig config, bool tightArena = false);

    /// Execute the pre-decoded kernels over every dataset (scoring stage
    /// of the two-stage pipeline; no IR access, no decoding).
    ReduceRunOutput run(const sim::ProgramSet& programs,
                        const sim::DeviceConfig& dev,
                        bool profile = false) const;

    /// Convenience: decode \p module and run it (one-off callers).
    ReduceRunOutput run(const ir::Module& module,
                        const sim::DeviceConfig& dev,
                        bool profile = false) const;

    /// CPU ground truth, computed once.
    const std::vector<std::vector<std::uint32_t>>& expectedPartials() const
    {
        return expectedPartials_;
    }
    const std::vector<std::uint32_t>& expectedTotals() const
    {
        return expectedTotals_;
    }
    const ReduceConfig& config() const { return config_; }

    /// Integer sums: every partial and every total must match exactly.
    std::string check(const ReduceRunOutput& out) const;
    std::string label(const sim::DeviceConfig& dev) const;

  private:
    /// Timing-grid multiplier (saturated-device regime).
    static constexpr std::uint32_t kOversubscribe = 512;

    ReduceConfig config_;
    bool tightArena_;
    std::vector<std::vector<std::uint32_t>> inputs_;
    std::vector<std::vector<std::uint32_t>> expectedPartials_;
    std::vector<std::uint32_t> expectedTotals_;
};

/// Scores a variant by total simulated kernel time; any fault, any wrong
/// partial sum or any wrong total invalidates it.
using ReduceFitness = core::DriverFitness<ReduceDriver>;

} // namespace gevo::reduce

#endif // GEVO_APPS_REDUCE_DRIVER_H
