/// Regenerates paper Figure 6: distribution of speedups across
/// independent GEVO runs, for every requested registry workload.
///
/// The paper runs 10 searches of 300/130 generations over days of GPU
/// time; each workload carries scaled per-run defaults (runs x gens x
/// pop, flag-overridable — see EXPERIMENTS.md for the scaling notes).
/// Expect the discovered speedups to sit below the golden-edit ceiling
/// at this budget — the figure's point is the run-to-run spread.
/// --islands exercises the island orchestrator across the same seeds.
/// --json=<path> additionally writes the per-run speedups and the
/// per-workload distribution as a machine-readable artifact.

#include "apps/registry.h"
#include "bench_util.h"
#include "core/workload.h"
#include "support/stats.h"

namespace {

using namespace gevo;

struct RunPoint {
    std::uint64_t seed = 0;
    double speedup = 0.0;
};

struct WorkloadPanel {
    std::string name;
    std::vector<RunPoint> runs;
    double min = 0.0, mean = 0.0, max = 0.0;
};

bool
writeJson(const std::string& path,
          const std::vector<WorkloadPanel>& panels)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write JSON artifact %s\n",
                     path.c_str());
        return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"fig6_variability\",\n");
    std::fprintf(f, "  \"workloads\": [\n");
    for (std::size_t i = 0; i < panels.size(); ++i) {
        const WorkloadPanel& p = panels[i];
        std::fprintf(f, "    {\n      \"name\": \"%s\",\n",
                     p.name.c_str());
        std::fprintf(f,
                     "      \"min\": %.4f, \"mean\": %.4f, "
                     "\"max\": %.4f,\n",
                     p.min, p.mean, p.max);
        std::fprintf(f, "      \"runs\": [\n");
        for (std::size_t r = 0; r < p.runs.size(); ++r)
            std::fprintf(f,
                         "        {\"seed\": %llu, \"speedup\": "
                         "%.4f}%s\n",
                         static_cast<unsigned long long>(p.runs[r].seed),
                         p.runs[r].speedup,
                         r + 1 < p.runs.size() ? "," : "");
        std::fprintf(f, "      ]\n    }%s\n",
                     i + 1 < panels.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote JSON artifact: %s\n", path.c_str());
    return true;
}

} // namespace

int
main(int argc, char** argv)
{
    apps::registerBuiltinWorkloads();
    auto& registry = core::WorkloadRegistry::instance();
    const Flags flags(argc, argv);
    bench::banner(
        "Figure 6: speedup distribution across independent GEVO runs",
        "paper Fig. 6");

    const auto dev = sim::deviceByName(flags.getString("device", "P100"));
    // Default: every registered workload at its own variability scale
    // (the paper's figure shows adept-v1 + simcov; new workloads add
    // their own panels automatically).
    const auto names = bench::workloadList(flags, registry);

    std::vector<WorkloadPanel> panels;
    std::uint64_t seedBase = 100;
    char label = 'a';
    for (const auto& name : names) {
        const auto& workload = registry.get(name);
        core::WorkloadConfig config;
        config.device = dev;
        config.flags = &flags;
        // The figure's historical scale (4 ADEPT pairs; SIMCoV at its
        // full 32x32 fitness grid) — not the bench-scale knobs.
        config.defaults = workload.variabilityKnobs;
        const auto instance = workload.make(config);

        const auto runs = static_cast<std::uint32_t>(
            flags.getInt("runs", workload.variabilityRuns));
        const auto gens = static_cast<std::uint32_t>(
            flags.getInt("gens", workload.variabilityGens));
        const auto pop = static_cast<std::uint32_t>(
            flags.getInt("pop", workload.variabilityPop));
        const auto islands = static_cast<std::uint32_t>(
            flags.getInt("islands", 1));

        std::printf("\n(%c) %s on %s: %u runs x %u generations, "
                    "population %u%s\n",
                    label++, workload.name.c_str(), dev.name.c_str(), runs,
                    gens, pop,
                    islands > 1 ? strformat(", %u islands", islands).c_str()
                                : "");
        WorkloadPanel panel;
        panel.name = name;
        Table t({"run", "seed", "final speedup", "best-gen trajectory"});
        RunningStat stat;
        for (std::uint32_t r = 0; r < runs; ++r) {
            core::EvolutionParams params = workload.searchDefaults;
            params.populationSize = pop;
            params.generations = gens;
            params.elitism = 2;
            params.seed = seedBase + r;
            params.islands = islands;
            core::EvolutionEngine engine(instance->module(),
                                         instance->fitness(), params);
            const auto result = engine.run();
            stat.push(result.speedup());
            panel.runs.push_back({params.seed, result.speedup()});
            std::string traj;
            for (std::size_t g = 0; g < result.history.size();
                 g += std::max<std::size_t>(1, gens / 6)) {
                traj += strformat(
                    "%.3f ", result.baselineMs / result.history[g].bestMs);
            }
            t.row().cell(static_cast<long long>(r))
                .cell(static_cast<long long>(params.seed))
                .cell(result.speedup(), 3).cell(traj);
        }
        t.print();
        std::printf("distribution: min %.3fx mean %.3fx max %.3fx\n",
                    stat.min(), stat.mean(), stat.max());
        panel.min = stat.min();
        panel.mean = stat.mean();
        panel.max = stat.max();
        panels.push_back(std::move(panel));
        seedBase += 400; // Distinct seed block per workload.
    }

    const std::string jsonPath = flags.getString("json", "");
    if (!jsonPath.empty())
        return writeJson(jsonPath, panels) ? 0 : 1;
    return 0;
}
