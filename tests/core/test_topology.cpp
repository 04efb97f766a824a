/// Topology: island counts, migration schedules and edge order for every
/// kind, and the params -> topology derivation.

#include "core/topology.h"

#include <gtest/gtest.h>

namespace gevo::core {
namespace {

Topology
make(TopologyKind kind, std::uint32_t islands, std::uint32_t interval)
{
    EvolutionParams params;
    params.topology = kind;
    params.islands = islands;
    params.migrationInterval = interval;
    return Topology(params);
}

TEST(Topology, PanmicticHasOneIslandAndNoMigration)
{
    const auto t = make(TopologyKind::Panmictic, 1, 1);
    EXPECT_EQ(t.islandCount(), 1u);
    for (std::uint32_t gen = 1; gen <= 50; ++gen)
        EXPECT_TRUE(t.migrationsAfter(gen).empty());
}

TEST(Topology, RingEdgesFormADirectedCycle)
{
    const auto t = make(TopologyKind::Ring, 4, 5);
    EXPECT_EQ(t.islandCount(), 4u);
    EXPECT_TRUE(t.migrationsAfter(1).empty());
    EXPECT_TRUE(t.migrationsAfter(4).empty());
    // Regression: `gen % interval == 0` alone fired after generation 0 —
    // the seed population — one full interval before the documented
    // schedule. The first migration is after generation `interval`.
    EXPECT_TRUE(t.migrationsAfter(0).empty());
    const auto edges = t.migrationsAfter(5);
    ASSERT_EQ(edges.size(), 4u);
    for (std::uint32_t i = 0; i < 4; ++i) {
        EXPECT_EQ(edges[i].from, i);
        EXPECT_EQ(edges[i].to, (i + 1) % 4);
    }
    EXPECT_FALSE(t.migrationsAfter(10).empty());
    EXPECT_TRUE(t.migrationsAfter(11).empty());
}

TEST(Topology, RingIntervalZeroNeverMigrates)
{
    const auto t = make(TopologyKind::Ring, 3, 0);
    for (std::uint32_t gen = 0; gen <= 30; ++gen)
        EXPECT_TRUE(t.migrationsAfter(gen).empty());
}

TEST(Topology, RingIntervalOneFiresEveryGenerationExceptZero)
{
    // interval 1 is the tightest schedule: migration after every evolved
    // generation — but still not after generation 0, which has only the
    // seed population.
    const auto t = make(TopologyKind::Ring, 2, 1);
    EXPECT_TRUE(t.migrationsAfter(0).empty());
    for (std::uint32_t gen = 1; gen <= 10; ++gen)
        EXPECT_EQ(t.migrationsAfter(gen).size(), 2u) << gen;
}

TEST(Topology, SingleIslandRingNeverMigrates)
{
    const auto t = make(TopologyKind::Ring, 1, 1);
    EXPECT_TRUE(t.migrationsAfter(1).empty());
}

TEST(Topology, TorusFactorsIntoTheMostSquareGrid)
{
    // 6 islands -> 2x3; every island emits a right and a down edge.
    const auto t = make(TopologyKind::Torus, 6, 3);
    EXPECT_EQ(t.islandCount(), 6u);
    EXPECT_EQ(t.rows(), 2u);
    EXPECT_EQ(t.cols(), 3u);
    EXPECT_TRUE(t.migrationsAfter(0).empty());
    EXPECT_TRUE(t.migrationsAfter(2).empty());
    const auto edges = t.migrationsAfter(3);
    ASSERT_EQ(edges.size(), 12u);
    // Spot-check the wrap-around edges: island 2 (row 0, col 2) wraps
    // right to 0; island 5 (row 1, col 2) wraps down to 2.
    bool wrapRight = false;
    bool wrapDown = false;
    for (const auto& e : edges) {
        if (e.from == 2 && e.to == 0)
            wrapRight = true;
        if (e.from == 5 && e.to == 2)
            wrapDown = true;
        EXPECT_NE(e.from, e.to);
        EXPECT_LT(e.to, 6u);
    }
    EXPECT_TRUE(wrapRight);
    EXPECT_TRUE(wrapDown);
    // Every island participates as a source exactly twice on a 2-D grid.
    std::vector<int> outDegree(6, 0);
    for (const auto& e : edges)
        ++outDegree[e.from];
    for (int d : outDegree)
        EXPECT_EQ(d, 2);
}

TEST(Topology, PrimeIslandCountTorusDegeneratesToRing)
{
    // 5 islands factor as 1x5: no distinct down edge, so the torus is
    // exactly the 5-ring (no duplicate or self edges).
    const auto t = make(TopologyKind::Torus, 5, 2);
    const auto edges = t.migrationsAfter(2);
    ASSERT_EQ(edges.size(), 5u);
    for (std::uint32_t i = 0; i < 5; ++i) {
        EXPECT_EQ(edges[i].from, i);
        EXPECT_EQ(edges[i].to, (i + 1) % 5);
    }
}

TEST(Topology, StarRoutesThroughTheHub)
{
    const auto t = make(TopologyKind::Star, 4, 2);
    EXPECT_EQ(t.islandCount(), 4u);
    EXPECT_TRUE(t.migrationsAfter(1).empty());
    const auto edges = t.migrationsAfter(2);
    // 3 spokes in, then 3 broadcasts out; spoke->hub edges must come
    // first so the hub ingests before it broadcasts its (pre-migration)
    // elites.
    ASSERT_EQ(edges.size(), 6u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(edges[i].to, 0u);
        EXPECT_EQ(edges[i].from, i + 1);
    }
    for (std::size_t i = 3; i < 6; ++i) {
        EXPECT_EQ(edges[i].from, 0u);
        EXPECT_EQ(edges[i].to, i - 2);
    }
}

TEST(Topology, SingleIslandTorusAndStarNeverMigrate)
{
    const auto torus = make(TopologyKind::Torus, 1, 1);
    const auto star = make(TopologyKind::Star, 1, 1);
    for (std::uint32_t gen = 0; gen <= 10; ++gen) {
        EXPECT_TRUE(torus.migrationsAfter(gen).empty());
        EXPECT_TRUE(star.migrationsAfter(gen).empty());
    }
}

TEST(Topology, ParamsSelectRequestedKind)
{
    EvolutionParams params;
    params.islands = 6;
    params.migrationInterval = 4;

    params.topology = TopologyKind::Torus;
    EXPECT_NE(Topology(params).describe().find("torus"),
              std::string::npos);
    params.topology = TopologyKind::Star;
    EXPECT_NE(Topology(params).describe().find("star"),
              std::string::npos);
    params.topology = TopologyKind::Ring;
    EXPECT_NE(Topology(params).describe().find("ring"),
              std::string::npos);
    // Explicit panmictic with one island is fine...
    params.islands = 1;
    params.topology = TopologyKind::Panmictic;
    EXPECT_EQ(Topology(params).describe(), "panmictic");
}

TEST(Topology, DescribeStringsArePinned)
{
    EXPECT_EQ(make(TopologyKind::Auto, 1, 5).describe(), "panmictic");
    EXPECT_EQ(make(TopologyKind::Auto, 4, 5).describe(),
              "4-island ring, migration every 5 generations");
    EXPECT_EQ(make(TopologyKind::Ring, 3, 0).describe(),
              "3 isolated islands");
    EXPECT_EQ(make(TopologyKind::Torus, 6, 2).describe(),
              "2x3-island torus, migration every 2 generations");
    EXPECT_EQ(make(TopologyKind::Torus, 6, 0).describe(),
              "6 isolated islands");
    EXPECT_EQ(make(TopologyKind::Star, 4, 3).describe(),
              "4-island star (hub 0), migration every 3 generations");
}

TEST(TopologyDeathTest, PanmicticWithMultipleIslandsIsFatal)
{
    EvolutionParams params;
    params.islands = 3;
    params.topology = TopologyKind::Panmictic;
    EXPECT_DEATH(Topology{params}, "panmictic");
}

TEST(Topology, AutoDerivesFromParams)
{
    EvolutionParams params;
    params.islands = 1;
    EXPECT_EQ(Topology(params).islandCount(), 1u);
    EXPECT_EQ(Topology(params).describe(), "panmictic");

    params.islands = 6;
    params.migrationInterval = 7;
    const Topology ring(params);
    EXPECT_EQ(ring.islandCount(), 6u);
    EXPECT_EQ(ring.migrationsAfter(7).size(), 6u);
    EXPECT_TRUE(ring.migrationsAfter(8).empty());
}

} // namespace
} // namespace gevo::core
