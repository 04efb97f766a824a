#include "apps/workload_flags.h"

#include <string>

namespace gevo::apps {

BoundWorkload
bindWorkload(const Flags& flags)
{
    const auto& registry = core::WorkloadRegistry::instance();
    BoundWorkload bound;
    bound.workload =
        &registry.get(flags.getChoice("workload", registry.names(),
                                      "adept-v1"));
    core::WorkloadConfig config;
    config.device = sim::deviceByName(flags.getString("device", "P100"));
    config.flags = &flags;
    bound.instance = bound.workload->make(config);
    const auto devicesCsv = flags.getString("devices", "");
    if (!devicesCsv.empty()) {
        bound.portfolio = std::make_unique<core::PortfolioFitness>(
            bound.instance->fitness(), sim::resolveDeviceList(devicesCsv),
            core::deviceAggByName(flags.getString("device-agg", "worst")));
    }
    return bound;
}

void
listWorkloads(FlagUsage* usage)
{
    const auto& registry = core::WorkloadRegistry::instance();
    usage->section("registered workloads");
    for (const auto& name : registry.names()) {
        const auto& w = registry.get(name);
        usage->item(name, w.summary);
        for (const auto& knob : w.knobs)
            usage->item("  --" + knob.name,
                        knob.help + " (default " +
                            std::to_string(knob.defaultValue) + ")");
    }
}

} // namespace gevo::apps
