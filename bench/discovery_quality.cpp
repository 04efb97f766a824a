/// Discovery quality: guided vs uniform edit-site sampling.
///
/// The diagnosis-driven recipe (profile the elite, bias mutation toward
/// its hot source locations) only earns its keep if it finds better
/// variants — or the same variants sooner — than the paper's uniform
/// operator at an identical evaluation budget. This bench runs the two
/// samplers head-to-head: for every workload and every seed it runs one
/// search with `--sampler=uniform` and one with `--sampler=guided`,
/// everything else identical, and scores the pair on
///
///   best fitness at budget  — lower best-ms wins outright, and
///   generations-to-best     — on a fitness tie, discovering the shared
///                             best in fewer generations wins (the
///                             Figure 8 discovery-sequence view).
///
/// A workload's verdict is the majority over its seeds; the bench's
/// headline is how many workloads the guided sampler wins. CI runs this
/// with `--json=BENCH_discovery.json` and gates on `guided_wins >= 2`.
///
/// Flags: --workloads=a,b,c  --runs=<n seeds>  --gens  --pop
///        --explore-floor    --json=<path>

#include <cstdio>
#include <string>
#include <vector>

#include "apps/registry.h"
#include "bench_util.h"
#include "core/fitness.h"
#include "core/workload.h"
#include "support/table.h"

namespace {

using namespace gevo;

/// One (workload, seed, sampler) search outcome.
struct SearchOutcome {
    double bestMs = 0.0;
    double speedup = 0.0;
    bool valid = false;
    /// First generation whose running best equals the final best (the
    /// discovery moment). generations+1 when nothing valid was found.
    std::uint32_t gensToBest = 0;
};

SearchOutcome
runOne(const core::WorkloadInstance& instance,
       core::EvolutionParams params, core::SamplerKind kind)
{
    params.samplerKind = kind;
    core::EvolutionEngine engine(instance.module(), instance.fitness(),
                                 params);
    const auto result = engine.run();

    SearchOutcome out;
    out.valid = result.best.fitness.valid;
    out.bestMs = result.best.fitness.ms();
    out.speedup = result.speedup();
    out.gensToBest = params.generations + 1;
    for (const auto& log : result.history) {
        if (log.bestMs == out.bestMs) {
            out.gensToBest = log.generation;
            break;
        }
    }
    return out;
}

/// +1 when guided wins the pair, -1 when uniform does, 0 on a dead tie.
int
judge(const SearchOutcome& guided, const SearchOutcome& uniform)
{
    if (guided.valid != uniform.valid)
        return guided.valid ? 1 : -1;
    if (guided.bestMs != uniform.bestMs)
        return guided.bestMs < uniform.bestMs ? 1 : -1;
    if (guided.gensToBest != uniform.gensToBest)
        return guided.gensToBest < uniform.gensToBest ? 1 : -1;
    return 0;
}

struct SeedRow {
    std::uint64_t seed = 0;
    SearchOutcome guided;
    SearchOutcome uniform;
    int verdict = 0;
};

struct WorkloadReport {
    std::string name;
    std::vector<SeedRow> seeds;
    int guidedSeedWins = 0;
    int uniformSeedWins = 0;

    /// Majority verdict over the seeds.
    int
    verdict() const
    {
        if (guidedSeedWins != uniformSeedWins)
            return guidedSeedWins > uniformSeedWins ? 1 : -1;
        return 0;
    }
};

WorkloadReport
benchWorkload(const core::Workload& workload, const Flags& flags)
{
    core::WorkloadConfig config;
    config.flags = &flags;
    config.defaults = workload.benchKnobs;
    const auto instance = workload.make(config);

    // Variability scale (multiple independent runs) rather than the
    // bench scale's budget: the comparison needs search room,
    // not peak evaluation rate.
    core::EvolutionParams params = workload.benchDefaults;
    params.generations = static_cast<std::uint32_t>(
        flags.getInt("gens", workload.variabilityGens));
    params.populationSize = static_cast<std::uint32_t>(
        flags.getInt("pop", workload.variabilityPop));
    params.sampler.exploreFloor = flags.getDouble(
        "explore-floor", params.sampler.exploreFloor);
    const auto runs =
        static_cast<std::uint64_t>(flags.getInt("runs", 3));

    WorkloadReport report;
    report.name = workload.name;
    for (std::uint64_t r = 0; r < runs; ++r) {
        SeedRow row;
        row.seed = 1 + r;
        params.seed = row.seed;
        row.guided = runOne(*instance, params, core::SamplerKind::Guided);
        row.uniform =
            runOne(*instance, params, core::SamplerKind::Uniform);
        row.verdict = judge(row.guided, row.uniform);
        if (row.verdict > 0)
            ++report.guidedSeedWins;
        else if (row.verdict < 0)
            ++report.uniformSeedWins;
        report.seeds.push_back(row);
    }
    return report;
}

const char*
verdictName(int v)
{
    return v > 0 ? "guided" : v < 0 ? "uniform" : "tie";
}

bool
writeJson(const std::string& path,
          const std::vector<WorkloadReport>& reports, int guidedWins,
          int uniformWins)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write JSON artifact %s\n",
                     path.c_str());
        return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"discovery_quality\",\n");
    std::fprintf(f, "  \"guided_wins\": %d,\n  \"uniform_wins\": %d,\n",
                 guidedWins, uniformWins);
    std::fprintf(f, "  \"workloads\": [\n");
    for (std::size_t i = 0; i < reports.size(); ++i) {
        const WorkloadReport& r = reports[i];
        std::fprintf(f, "    {\n      \"name\": \"%s\",\n",
                     r.name.c_str());
        std::fprintf(f, "      \"verdict\": \"%s\",\n",
                     verdictName(r.verdict()));
        std::fprintf(f,
                     "      \"guided_seed_wins\": %d, "
                     "\"uniform_seed_wins\": %d,\n",
                     r.guidedSeedWins, r.uniformSeedWins);
        std::fprintf(f, "      \"seeds\": [\n");
        for (std::size_t s = 0; s < r.seeds.size(); ++s) {
            const SeedRow& row = r.seeds[s];
            std::fprintf(
                f,
                "        {\"seed\": %llu, \"verdict\": \"%s\", "
                "\"guided\": {\"speedup\": %.4f, \"gens_to_best\": %u}, "
                "\"uniform\": {\"speedup\": %.4f, \"gens_to_best\": "
                "%u}}%s\n",
                static_cast<unsigned long long>(row.seed),
                verdictName(row.verdict), row.guided.speedup,
                row.guided.gensToBest, row.uniform.speedup,
                row.uniform.gensToBest,
                s + 1 < r.seeds.size() ? "," : "");
        }
        std::fprintf(f, "      ]\n    }%s\n",
                     i + 1 < reports.size() ? "," : "");
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

    bench::banner("Discovery quality: guided vs uniform edit sampling",
                  "the diagnosis-driven search recipe, cf. GEVO Sec "
                  "III-D operator study");

    const auto names = bench::workloadList(flags, registry);

    int guidedWins = 0;
    int uniformWins = 0;
    std::vector<WorkloadReport> reports;
    Table t({"workload", "seed", "guided x", "gens", "uniform x", "gens",
             "verdict"});
    for (const auto& name : names) {
        reports.push_back(benchWorkload(registry.get(name), flags));
        const WorkloadReport& report = reports.back();
        for (const SeedRow& row : report.seeds) {
            t.row().cell(name).cell(static_cast<long long>(row.seed))
                .cell(row.guided.speedup, 3)
                .cell(static_cast<long long>(row.guided.gensToBest))
                .cell(row.uniform.speedup, 3)
                .cell(static_cast<long long>(row.uniform.gensToBest))
                .cell(verdictName(row.verdict));
        }
        const int v = report.verdict();
        if (v > 0)
            ++guidedWins;
        else if (v < 0)
            ++uniformWins;
        t.row().cell(name).cell("-").cell("").cell("").cell("").cell("")
            .cell(std::string("=> ") + verdictName(v));
    }
    t.print();

    std::printf("\nworkload verdicts: guided %d, uniform %d, ties %zu\n",
                guidedWins, uniformWins,
                names.size() -
                    static_cast<std::size_t>(guidedWins + uniformWins));

    const std::string jsonPath = flags.getString("json", "");
    bool jsonOk = true;
    if (!jsonPath.empty())
        jsonOk = writeJson(jsonPath, reports, guidedWins, uniformWins);
    return jsonOk ? 0 : 1;
}
