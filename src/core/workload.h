/// \file
/// Workload abstraction + registry: the uniform recipe for "something the
/// evolutionary search can optimize".
///
/// A Workload names an application, knows how to build a self-owning
/// instance (base module + fitness function + whatever the fitness
/// references: datasets, drivers, oracles) at a caller-chosen scale, and
/// carries the search defaults its figures were tuned with. The registry
/// is what lets one driver (`examples/evolve.cpp`), the throughput bench
/// and the variability bench iterate every application instead of each
/// app shipping its own ~150-line driver.
///
/// Apps register themselves via `apps::registerBuiltinWorkloads()` (an
/// explicit call, not static initializers — gevo is a static library, so
/// initializer-only translation units would be dropped by the linker).

#ifndef GEVO_CORE_WORKLOAD_H
#define GEVO_CORE_WORKLOAD_H

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/fitness.h"
#include "core/params.h"
#include "sim/device_config.h"
#include "support/flags.h"

namespace gevo::core {

/// Scale/configuration inputs for building a workload instance. Knob
/// precedence: explicit user flag (or GEVO_* env) > consumer-supplied
/// default > the workload's own baked-in default.
struct WorkloadConfig {
    sim::DeviceConfig device = sim::p100();
    /// Optional user knob source (nullptr = no user overrides).
    const Flags* flags = nullptr;
    /// Consumer-scale knob defaults (e.g. the throughput bench pins
    /// "pairs" to 4); lose to explicit user flags.
    std::map<std::string, std::string> defaults;

    /// Integer knob lookup with the precedence above.
    std::int64_t knobInt(const std::string& name,
                         std::int64_t fallback) const;
};

/// A named scale knob a workload understands (drives --help listings).
struct KnobSpec {
    std::string name;
    std::int64_t defaultValue = 0;
    std::string help;
};

/// A fully built, self-owning workload instance: the base module, the
/// fitness function, and everything the fitness references (datasets,
/// drivers, CPU oracles). Thread-safe to evaluate concurrently, like the
/// FitnessFunction it exposes.
class WorkloadInstance {
  public:
    virtual ~WorkloadInstance() = default;

    virtual const ir::Module& module() const = 0;
    virtual const FitnessFunction& fitness() const = 0;

    /// One-line scale description for banners (e.g. "6 pairs, 64
    /// threads"). Empty = nothing to say.
    virtual std::string banner() const { return {}; }

    /// The paper's known-good edit set against this instance's module
    /// (reporting ceiling); empty when the workload has none.
    virtual std::vector<mut::Edit> goldenEdits() const { return {}; }

    /// Speedup the paper reports for the golden set (0 = not applicable).
    virtual double paperCeiling() const { return 0.0; }

    /// Held-out validation of a search's best edit list (e.g. SIMCoV's
    /// memory-tight large grid; see DriverInstance::heldOut). Returns
    /// nullopt when the workload has no held-out check (the default), an
    /// empty string when the variant passes, else a diagnostic.
    virtual std::optional<std::string>
    validateBest(const std::vector<mut::Edit>& edits) const
    {
        (void)edits;
        return std::nullopt;
    }
};

/// Registry entry: how to build a workload and how to search it.
struct Workload {
    std::string name;    ///< Registry key (e.g. "adept-v0").
    std::string summary; ///< One-liner for --help / --list.
    /// Scale knobs `make` understands (documented defaults).
    std::vector<KnobSpec> knobs;
    /// Example-scale search defaults (what examples/evolve.cpp uses).
    EvolutionParams searchDefaults;
    /// Bench-scale search defaults (what bench/throughput.cpp uses —
    /// these pin the ROADMAP's perf-anchor configuration).
    EvolutionParams benchDefaults;
    /// Bench-scale build knobs (paired with benchDefaults).
    std::map<std::string, std::string> benchKnobs;
    /// Independent-run count / generations / population for the Figure 6
    /// variability bench, plus its build knobs (the figure's historical
    /// scale, which is not always the throughput bench's).
    std::uint32_t variabilityRuns = 3;
    std::uint32_t variabilityGens = 12;
    std::uint32_t variabilityPop = 16;
    std::map<std::string, std::string> variabilityKnobs;
    /// Build an instance at the configured scale.
    std::function<std::unique_ptr<WorkloadInstance>(const WorkloadConfig&)>
        make;
};

/// Process-wide workload registry (registration order preserved).
class WorkloadRegistry {
  public:
    static WorkloadRegistry& instance();

    /// Register; fatal on duplicate names (two apps claiming one name is
    /// a build misconfiguration, not a runtime condition).
    void add(Workload workload);

    /// nullptr when \p name is unknown.
    const Workload* find(const std::string& name) const;

    /// Fatal when \p name is unknown (lists what is registered).
    const Workload& get(const std::string& name) const;

    /// Registered names, in registration order.
    std::vector<std::string> names() const;

    /// Resolve a `--workloads=a,b,c` list: entries are trimmed and must
    /// each name a registered workload. Fatal — listing what is
    /// registered — on an unknown name, an empty entry (`a,,b`, a
    /// trailing comma) or an empty list, so a typo can never silently
    /// skip a workload a bench or CI gate was asked to cover.
    std::vector<std::string> resolveList(const std::string& csv) const;

    std::size_t size() const { return entries_.size(); }

  private:
    WorkloadRegistry() = default;
    std::vector<Workload> entries_;
};

} // namespace gevo::core

#endif // GEVO_CORE_WORKLOAD_H
