/// The paper's Section V analysis pipeline, end to end, on the golden
/// ADEPT-V1 variant: Algorithm 1 minimization, Algorithm 2 separation,
/// exhaustive subset search and the dependency graph as Graphviz DOT.

#include <cstdio>

#include "analysis/edit_analysis.h"
#include "apps/adept/driver.h"
#include "apps/adept/golden_edits.h"

using namespace gevo;
using namespace gevo::adept;

int
main()
{
    SequenceSetConfig cfg;
    cfg.numPairs = 5;
    cfg.seed = 7;
    auto pairs = generatePairs(cfg);
    appendBoundaryProbePairs(&pairs, cfg.maxLen, cfg.seed);

    const ScoringParams scoring;
    const auto built = buildAdeptV1(scoring, 64);
    const AdeptDriver driver(pairs, scoring, 1, 64);
    AdeptFitness fitness(driver, sim::p100());
    const auto fit = analysis::makeEditSetFitness(built.module, fitness);

    const auto golden = v1AllGoldenEdits(built);
    std::printf("analyzing the %zu-edit GEVO-optimized ADEPT-V1 variant\n",
                golden.size());

    // Algorithm 1.
    const auto minimized = analysis::minimizeEdits(editsOf(golden), fit);
    std::printf("Algorithm 1: %zu -> %zu edits (dropped %zu weak)\n",
                golden.size(), minimized.kept.size(),
                minimized.dropped.size());

    // Algorithm 2.
    const auto split = analysis::separateEpistasis(minimized.kept, fit);
    std::printf("Algorithm 2: %zu independent, %zu epistatic\n",
                split.independent.size(), split.epistatic.size());
    std::printf("  independent set: %.1f%% improvement\n",
                100 * (split.baselineMs - split.independentMs) /
                    split.baselineMs);
    std::printf("  epistatic set:   %.1f%% improvement\n\n",
                100 * (split.baselineMs - split.epistaticMs) /
                    split.baselineMs);

    // Exhaustive subset search over the forward cluster.
    const auto cluster = v1EpistaticCluster(built);
    std::vector<mut::Edit> edits;
    std::vector<std::string> names;
    for (const auto& n : cluster) {
        edits.push_back(n.edit);
        names.push_back(n.name);
    }
    const auto subsets = analysis::searchSubsets(edits, fit);
    const auto edges = analysis::dependencyGraph(edits.size(), subsets);
    std::printf("subset search over {e5,e6,e8,e10}: %zu subsets, %zu "
                "dependency edges\n\n",
                subsets.size(), edges.size());
    std::printf("%s", analysis::toDot(edits.size(), subsets, edges, names)
                          .c_str());
    return 0;
}
