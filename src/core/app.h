/// \file
/// The app contract: what an application supplies, and the fitness, the
/// held-out re-run and the launch tally core builds from it.
///
/// An app's driver supplies three members:
///
///   - `run(programs, dev, profile)` launches the pre-decoded kernels over
///     every test case and returns an output derived from RunOutput (the
///     first fault, the summed simulated time, the summed counters);
///   - `check(output)` compares a fault-free output against the CPU
///     reference and returns a fail reason, or an empty string when it
///     matches (exact for ADEPT, reduce, stencil and BFS; a per-series
///     tolerance for SIMCoV);
///   - `label(dev)` is the fitness name for logs. The cache, checkpoint
///     and farm scopes key on it.
///
/// Core supplies the rest (paper Sec III-C/E): DriverFitness scores a
/// variant by its simulated time when it runs fault-free and passes
/// check(); DriverInstance owns the built module, the driver and the
/// fitness, and its heldOut() scores a search's best edits at a larger
/// scale with the same fitness, so the held-out run compares outputs too.

#ifndef GEVO_CORE_APP_H
#define GEVO_CORE_APP_H

#include <string>
#include <utility>
#include <vector>

#include "core/fitness.h"
#include "core/workload.h"
#include "sim/executor.h"

namespace gevo::core {

/// What every driver run reports besides its app-specific outputs.
struct RunOutput {
    sim::Fault fault;           ///< First fault, if any.
    double totalMs = 0.0;       ///< Simulated time summed over launches.
    sim::LaunchStats aggregate; ///< Counters summed over launches.

    bool ok() const { return fault.ok(); }

    /// Tally one launch, in launch order (totalMs is a float sum). A
    /// faulting launch's time and counters count too, and its fault
    /// becomes the run's. Returns false on a fault, so a driver writes
    /// `if (!out.add(launchKernel(...))) return out;`.
    bool
    add(const sim::LaunchResult& launch)
    {
        totalMs += launch.stats.ms;
        aggregate.accumulate(launch.stats);
        if (launch.ok())
            return true;
        fault = launch.fault;
        return false;
    }
};

/// The one FitnessFunction every app uses: the app driver's run(), then
/// its check(), with the simulated time and the aggregate counters as the
/// objectives. Thread-safe whenever Driver::run() is.
template <class Driver>
class DriverFitness : public FitnessFunction {
  public:
    DriverFitness(const Driver& driver, sim::DeviceConfig dev)
        : driver_(driver), dev_(std::move(dev))
    {
    }

    FitnessResult
    evaluate(const CompiledVariant& variant) const override
    {
        return evaluateOn(variant, dev_);
    }

    FitnessResult
    evaluateOn(const CompiledVariant& variant,
               const sim::DeviceConfig& dev) const override
    {
        const auto out = driver_.run(variant.programs, dev);
        if (!out.ok())
            return FitnessResult::fail(out.fault.detail);
        std::string reason = driver_.check(out);
        if (!reason.empty())
            return FitnessResult::fail(std::move(reason));
        return FitnessResult::pass(out.totalMs, out.aggregate);
    }

    bool
    profileVariant(const CompiledVariant& variant,
                   ProfileSummary* out) const override
    {
        const auto run =
            driver_.run(variant.programs, dev_, /*profile=*/true);
        if (!run.ok())
            return false;
        *out = run.aggregate;
        return true;
    }

    std::string name() const override { return driver_.label(dev_); }

    const sim::DeviceConfig& device() const { return dev_; }

  private:
    const Driver& driver_;
    sim::DeviceConfig dev_;
};

/// Workload instance plumbing shared by every app: the built module
/// (\p Built carries a `module`), the driver made from it, and the
/// fitness over that driver.
template <class Built, class Driver>
class DriverInstance : public WorkloadInstance {
  public:
    const ir::Module& module() const override { return built_.module; }
    const FitnessFunction& fitness() const override { return fitness_; }

  protected:
    /// \p makeDriver builds the driver from the built module.
    template <class MakeDriver>
    DriverInstance(Built built, const sim::DeviceConfig& device,
                   MakeDriver makeDriver)
        : built_(std::move(built)), driver_(makeDriver(built_)),
          fitness_(driver_, device)
    {
    }

    /// The held-out check behind validateBest (paper Sec VI-D): compile
    /// \p edits against \p module, the app built at a larger scale, and
    /// score them with \p driver at that scale on this instance's device.
    /// Empty when the variant passes, else "held-out <scale> check: " and
    /// the compile or fitness diagnostic.
    std::string
    heldOut(const ir::Module& module, const Driver& driver,
            const std::vector<mut::Edit>& edits,
            const std::string& scale) const
    {
        const auto cv = compileVariant(module, edits);
        const auto result =
            cv.ok ? DriverFitness<Driver>(driver, fitness_.device())
                        .evaluate(cv)
                  : FitnessResult::fail(cv.failReason);
        if (result.valid)
            return {};
        return "held-out " + scale + " check: " + result.failReason;
    }

    Built built_;
    Driver driver_;
    DriverFitness<Driver> fitness_;
};

} // namespace gevo::core

#endif // GEVO_CORE_APP_H
