/**
 * @file
 * Functional tests of every workload: run the task graph through the
 * order-preserving ImmediateExecutor and check verify() plus
 * application-level properties.
 */

#include <gtest/gtest.h>

#include "workloads/factory.hh"
#include "workloads/pagerank.hh"
#include "workloads/bfs.hh"
#include "workloads/sssp.hh"
#include "workloads/astar.hh"
#include "workloads/gcn.hh"
#include "workloads/kmeans.hh"
#include "workloads/knn.hh"
#include "workloads/spmv.hh"
#include "workloads/graph_gen.hh"

namespace abndp
{

namespace
{

/** Run a workload functionally (no timing) and return epochs executed. */
std::uint64_t
runFunctional(Workload &wl, std::uint64_t maxEpochs = 0)
{
    SystemConfig cfg;
    SimAllocator alloc(cfg);
    wl.setup(alloc);
    ImmediateExecutor exec(wl);
    wl.emitInitialTasks(exec);
    return exec.runToCompletion(maxEpochs);
}

Graph
smallGraph(bool undirected, std::uint64_t seed = 42)
{
    RmatParams p;
    p.scale = 9;
    p.edgeFactor = 8;
    p.seed = seed;
    p.undirected = undirected;
    return makeRmatGraph(p);
}

} // namespace

/** verify() must pass for every workload at tiny scale. */
class WorkloadFunctional : public ::testing::TestWithParam<std::string>
{
};

TEST_P(WorkloadFunctional, VerifiesAgainstReference)
{
    auto wl = makeWorkload(WorkloadSpec::tiny(GetParam()));
    runFunctional(*wl);
    EXPECT_TRUE(wl->verify());
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadFunctional,
                         ::testing::ValuesIn(allWorkloadNames()),
                         [](const auto &info) { return info.param; });

TEST(PageRank, RanksSumToRoughlyOne)
{
    PageRankWorkload pr(smallGraph(false), 10);
    runFunctional(pr);
    double sum = 0.0;
    for (double r : pr.ranks())
        sum += r;
    // Dangling vertices leak rank mass, so the sum is below 1.
    EXPECT_GT(sum, 0.2);
    EXPECT_LT(sum, 1.05);
    EXPECT_TRUE(pr.verify());
}

TEST(PageRank, ConvergesAndStops)
{
    PageRankWorkload pr(smallGraph(false), 0, 1e-4);
    std::uint64_t epochs = runFunctional(pr);
    EXPECT_GT(epochs, 2u);
    EXPECT_LT(epochs, 200u);
    EXPECT_TRUE(pr.verify());
}

TEST(PageRank, EpochCapKeepsVerifyExact)
{
    PageRankWorkload pr(smallGraph(false), 2);
    runFunctional(pr);
    EXPECT_EQ(pr.iterationsRun(), 2u);
    EXPECT_TRUE(pr.verify());
}

TEST(Bfs, SourceDistanceIsZero)
{
    BfsWorkload bfs(smallGraph(true), 0);
    runFunctional(bfs);
    EXPECT_EQ(bfs.distances()[0], 0u);
    EXPECT_TRUE(bfs.verify());
}

TEST(Bfs, CappedRunStillVerifies)
{
    BfsWorkload bfs(smallGraph(true), 0);
    runFunctional(bfs, 2);
    EXPECT_TRUE(bfs.verify());
}

TEST(Sssp, DistancesRespectTriangleInequalityOnEdges)
{
    Graph g = smallGraph(true);
    SsspWorkload sssp(g, 0);
    runFunctional(sssp);
    EXPECT_TRUE(sssp.verify());
    EXPECT_DOUBLE_EQ(sssp.distances()[0], 0.0);
}

TEST(Astar, FindsShortestPathCosts)
{
    Graph g = smallGraph(true);
    AstarWorkload astar(g, 4, 11);
    runFunctional(astar);
    EXPECT_TRUE(astar.verify());
    // The search must terminate with a finite goal cost per query (the
    // endpoints are chosen from one connected component).
    for (std::uint32_t q = 0; q < astar.numQueriesTotal(); ++q)
        EXPECT_LT(astar.goalCost(q), ~0u);
}

TEST(Astar, HeuristicIsAdmissible)
{
    Graph g = smallGraph(true);
    AstarWorkload astar(g, 2, 11);
    runFunctional(astar);
    // h(goal, goal) == 0 follows from the ALT definition.
    for (std::uint32_t v = 0; v < g.numVertices(); ++v)
        EXPECT_EQ(astar.heuristic(v, v), 0u);
}

TEST(Gcn, ProducesNonNegativeFeatures)
{
    GcnWorkload gcn(smallGraph(true), 2);
    runFunctional(gcn);
    EXPECT_TRUE(gcn.verify());
    for (std::uint32_t f = 0; f < GcnWorkload::featureDim; ++f)
        EXPECT_GE(gcn.featuresOf(0)[f], 0.0f); // post-ReLU
}

TEST(Kmeans, EveryPointAssignedToAValidCluster)
{
    KmeansWorkload km(1000, 8, 3);
    runFunctional(km);
    EXPECT_TRUE(km.verify());
    for (std::uint32_t a : km.assignments())
        EXPECT_LT(a, 8u);
}

TEST(Knn, ExactAgainstBruteForce)
{
    KnnWorkload knn(1500, 64, 4, 0.8, 17, 16);
    runFunctional(knn);
    EXPECT_TRUE(knn.verify());
    // Results are sorted by distance.
    for (std::uint32_t q = 0; q < 64; ++q) {
        const auto &res = knn.resultsOf(q);
        ASSERT_EQ(res.size(), 4u);
        for (std::size_t i = 1; i < res.size(); ++i)
            EXPECT_LE(res[i - 1].first, res[i].first);
    }
}

TEST(Spmv, MatchesReferenceIteration)
{
    SpmvWorkload spmv(smallGraph(false), 3);
    runFunctional(spmv);
    EXPECT_TRUE(spmv.verify());
    // After normalization the vector's max magnitude is 1.
    double mx = 0.0;
    for (double v : spmv.vector())
        mx = std::max(mx, std::abs(v));
    EXPECT_NEAR(mx, 1.0, 1e-12);
}

TEST(Factory, UnknownWorkloadIsFatal)
{
    WorkloadSpec spec;
    spec.name = "nosuch";
    EXPECT_DEATH(makeWorkload(spec), "unknown workload");
}

TEST(Factory, InvalidSpecExitsWithTheRule)
{
    // A knob a constructor would assert on (or read past) is a user
    // error: fatal() exits 1 naming the knob and its bound.
    WorkloadSpec spec;
    spec.name = "kmeans";
    spec.kmeansPoints = 0;
    EXPECT_EXIT(makeWorkload(spec), ::testing::ExitedWithCode(1),
                "kmeansPoints 0 must be at least kmeansClusters");
}

TEST(Factory, SuiteMatchesPaperList)
{
    const auto &names = allWorkloadNames();
    ASSERT_EQ(names.size(), 8u);
    EXPECT_EQ(names[0], "pr");
    EXPECT_EQ(names.back(), "spmv");
    EXPECT_EQ(representativeWorkloadNames().size(), 5u);
}

} // namespace abndp
