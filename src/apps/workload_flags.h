/// \file
/// The workload flags evolve and workerd share. --workload, --device,
/// --devices and --device-agg bind one registered workload instance and
/// the fitness its consumers see: the instance's own, or a
/// device-portfolio wrapper around it. --help lists the registered
/// workloads with their scale knobs.

#ifndef GEVO_APPS_WORKLOAD_FLAGS_H
#define GEVO_APPS_WORKLOAD_FLAGS_H

#include <memory>

#include "core/portfolio.h"
#include "core/workload.h"
#include "support/flags.h"

namespace gevo::apps {

/// A workload instance built from the command line.
struct BoundWorkload {
    const core::Workload* workload = nullptr;
    std::unique_ptr<core::WorkloadInstance> instance;
    /// Set by --devices; wraps instance->fitness().
    std::unique_ptr<core::PortfolioFitness> portfolio;

    /// What the engine, the backends, the caches and the farm evaluate.
    /// Its name() encodes the device set and feeds the trajectory-scope
    /// fingerprint, so a daemon serving another device set rejects the
    /// handshake.
    const core::FitnessFunction&
    fitness() const
    {
        if (portfolio != nullptr)
            return *portfolio;
        return instance->fitness();
    }
};

/// Bind --workload (default adept-v1), --device (default P100),
/// --devices (default none) and --device-agg (default worst) from
/// \p flags. The built-in workloads must be registered.
BoundWorkload bindWorkload(const Flags& flags);

/// Add the "registered workloads" section: each workload's summary and
/// its scale knobs with their defaults.
void listWorkloads(FlagUsage* usage);

} // namespace gevo::apps

#endif // GEVO_APPS_WORKLOAD_FLAGS_H
