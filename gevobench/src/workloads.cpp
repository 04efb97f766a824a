#include <algorithm>
#include <cmath>
#include <numeric>

#include "apps/registry.h"
#include "bench.h"
#include "support/logging.h"

namespace gevobench {

using gevo::core::EvalBackendKind;
using gevo::core::EvolutionParams;

double
msBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const auto hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (rank - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double
median(const std::vector<double>& values)
{
    return percentile(values, 50.0);
}

double
mean(const std::vector<double>& values)
{
    if (values.empty())
        return 0.0;
    return std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
}

namespace {

EvolutionParams
searchParams(std::uint32_t pop, std::uint32_t gens, std::uint32_t threads)
{
    EvolutionParams p;
    p.populationSize = pop;
    p.generations = gens;
    p.elitism = 2;
    p.threads = threads;
    return p;
}

/// The workloads. Budgets are sized so one search takes a few seconds on
/// a 4-core host, a run's searches leave at least ten generation samples
/// above the p90, and no search uses more than 2 evaluator threads or
/// worker processes.
std::vector<WorkloadSpec>
allWorkloads()
{
    std::vector<WorkloadSpec> all;

    // adept-v0 at 2 threads: simulation dominates, and cached generations
    // leave only a few unique evaluations, so threads idle. Its gate
    // re-runs the search at 1 thread and demands the identical trajectory.
    WorkloadSpec adept;
    adept.name = "adept-pool";
    adept.app = "adept-v0";
    adept.knobs = {{"pairs", "4"}};
    adept.dataSeedKnob = "data-seed";
    adept.params = searchParams(12, 50, 2);
    adept.twinThreads = 1;
    adept.nominalSearchS = 3.0;
    all.push_back(adept);

    // Float atomics and several launches per evaluation; SIMCoV must stay
    // serial inside an evaluation.
    WorkloadSpec simcov;
    simcov.name = "simcov-pool";
    simcov.app = "simcov";
    simcov.knobs = {{"grid", "16"}, {"steps", "6"}};
    simcov.dataSeedKnob = "sim-seed";
    simcov.params = searchParams(16, 60, 2);
    simcov.nominalSearchS = 2.5;
    all.push_back(simcov);

    // Cheap kernels: fork/pipe dispatch, checkpoint and cache-store I/O
    // dominate, and the resume loads land in set-up.
    WorkloadSpec durable;
    durable.name = "reduce-durable";
    durable.app = "reduce";
    durable.knobs = {{"elems", "2048"}, {"inputs", "1"}};
    durable.dataSeedKnob = "data-seed";
    durable.params = searchParams(16, 60, 1);
    durable.nominalSearchS = 0.8;
    durable.params.backend = EvalBackendKind::Isolated;
    durable.durable = true;
    all.push_back(durable);

    return all;
}

} // namespace

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> names;
    for (const auto& w : allWorkloads())
        names.push_back(w.name);
    return names;
}

WorkloadSpec
findWorkload(const std::string& name, std::uint64_t searchSeed,
             std::uint64_t dataSeed)
{
    for (auto& w : allWorkloads()) {
        if (w.name != name)
            continue;
        w.params.seed = searchSeed;
        w.knobs[w.dataSeedKnob] = std::to_string(dataSeed);
        return w;
    }
    GEVO_FATAL("unknown workload '%s'", name.c_str());
}

std::unique_ptr<gevo::core::WorkloadInstance>
buildInstance(const WorkloadSpec& spec)
{
    gevo::apps::registerBuiltinWorkloads();
    gevo::core::WorkloadConfig config;
    config.defaults = spec.knobs;
    return gevo::core::WorkloadRegistry::instance().get(spec.app).make(config);
}

} // namespace gevobench
