/** @file Tests for the CSR graph and the synthetic generators. */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numeric>
#include <span>

#include "workloads/graph.hh"
#include "workloads/graph_gen.hh"

namespace abndp
{

namespace
{

/** FNV-1a (64-bit) over the little-endian bytes of @p values. */
template <typename T>
std::uint64_t
fnv1a(std::span<const T> values, std::uint64_t h = 0xcbf29ce484222325ull)
{
    for (T v : values) {
        for (std::size_t i = 0; i < sizeof(T); ++i) {
            h ^= (static_cast<std::uint64_t>(v) >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

/** One hash of a graph's CSR arrays: row(), then col(). */
std::uint64_t
csrHash(const Graph &g)
{
    return fnv1a(std::span(g.col()), fnv1a(std::span(g.row())));
}

} // namespace

TEST(Graph, FromEdgesBuildsCsr)
{
    Graph g = Graph::fromEdges(4, {{0, 1}, {0, 2}, {2, 3}}, false);
    EXPECT_EQ(g.numVertices(), 4u);
    EXPECT_EQ(g.numEdges(), 3u);
    EXPECT_EQ(g.degree(0), 2u);
    EXPECT_EQ(g.degree(1), 0u);
    EXPECT_EQ(g.degree(2), 1u);
    EXPECT_EQ(g.neighbors(0)[0], 1u);
    EXPECT_EQ(g.neighbors(0)[1], 2u);
    EXPECT_EQ(g.neighbors(2)[0], 3u);
}

TEST(Graph, DropsSelfLoopsAndDuplicates)
{
    Graph g = Graph::fromEdges(3, {{0, 0}, {0, 1}, {0, 1}, {1, 2}}, false);
    EXPECT_EQ(g.numEdges(), 2u);
    EXPECT_EQ(g.degree(0), 1u);
}

TEST(Graph, UndirectedStoresBothArcs)
{
    Graph g = Graph::fromEdges(3, {{0, 1}, {1, 2}}, true);
    EXPECT_EQ(g.numEdges(), 4u);
    EXPECT_EQ(g.degree(1), 2u);
    EXPECT_EQ(g.neighbors(1)[0], 0u);
    EXPECT_EQ(g.neighbors(1)[1], 2u);
}

TEST(Graph, MaxDegree)
{
    Graph g = Graph::fromEdges(5, {{0, 1}, {0, 2}, {0, 3}, {1, 2}}, false);
    EXPECT_EQ(g.maxDegree(), 3u);
}

TEST(GraphGen, RmatIsDeterministic)
{
    RmatParams p;
    p.scale = 10;
    p.edgeFactor = 8;
    Graph a = makeRmatGraph(p);
    Graph b = makeRmatGraph(p);
    EXPECT_EQ(a.numEdges(), b.numEdges());
    EXPECT_EQ(a.row(), b.row());
    EXPECT_EQ(a.col(), b.col());
}

TEST(GraphGen, RmatOutputPinned)
{
    // The exact R-MAT stream and CSR build, hashed. A changed draw
    // order, threshold or row layout moves these values; update them
    // only for an intended change of every graph input.
    RmatParams p;
    p.scale = 12;
    p.edgeFactor = 8;
    p.undirected = false;
    Graph directed = makeRmatGraph(p);
    EXPECT_EQ(directed.numEdges(), 28623u);
    EXPECT_EQ(csrHash(directed), 0x1cbc6c79ba36519aull);
    p.undirected = true;
    Graph undirected = makeRmatGraph(p);
    EXPECT_EQ(undirected.numEdges(), 53276u);
    EXPECT_EQ(csrHash(undirected), 0x789233dfa26f8facull);
}

TEST(GraphGen, RmatQuadrantTiesGoToTheHigherQuadrant)
{
    // A draw equal to a threshold lies past it; one ulp below does not.
    const double t[3] = {0.57, 0.57 + 0.19, 0.57 + 0.19 + 0.19};
    for (std::uint32_t q = 0; q < 3; ++q) {
        EXPECT_EQ(rmatQuadrant(t[q], t[0], t[1], t[2]), q + 1);
        EXPECT_EQ(rmatQuadrant(std::nextafter(t[q], 0.0), t[0], t[1],
                               t[2]),
                  q);
    }
    EXPECT_EQ(rmatQuadrant(0.0, t[0], t[1], t[2]), 0u);
    EXPECT_EQ(rmatQuadrant(std::nextafter(1.0, 0.0), t[0], t[1], t[2]),
              3u);
    // Zero-width quadrants are skipped: with b = 0, t0 == t1.
    EXPECT_EQ(rmatQuadrant(0.5, 0.5, 0.5, 0.75), 2u);
}

TEST(GraphGen, RmatHasPowerLawSkew)
{
    RmatParams p;
    p.scale = 12;
    p.edgeFactor = 16;
    Graph g = makeRmatGraph(p);
    double mean =
        static_cast<double>(g.numEdges()) / g.numVertices();
    // Heavy-tailed: the hub degree dwarfs the mean degree.
    EXPECT_GT(g.maxDegree(), 20 * mean);
}

TEST(GraphGen, RmatSeedChangesGraph)
{
    RmatParams a, b;
    a.scale = b.scale = 10;
    b.seed = a.seed + 1;
    EXPECT_NE(makeRmatGraph(a).col(), makeRmatGraph(b).col());
}

TEST(GraphGen, UniformGraphHasLowSkew)
{
    Graph g = makeUniformGraph(4096, 65536, 3, false);
    double mean = static_cast<double>(g.numEdges()) / g.numVertices();
    EXPECT_LT(g.maxDegree(), 5 * mean);
}

TEST(GraphGen, GridGraphDegrees)
{
    Graph g = makeGridGraph(4, 3);
    EXPECT_EQ(g.numVertices(), 12u);
    // Corners have degree 2, edges 3, interior 4.
    EXPECT_EQ(g.degree(0), 2u);
    EXPECT_EQ(g.degree(1), 3u);
    EXPECT_EQ(g.degree(5), 4u);
    // Undirected handshake: sum of degrees = 2 * #undirected edges.
    std::uint64_t sum = 0;
    for (std::uint32_t v = 0; v < g.numVertices(); ++v)
        sum += g.degree(v);
    EXPECT_EQ(sum, g.numEdges());
    EXPECT_EQ(g.numEdges(), 2u * (3 * 3 + 2 * 4));
}

TEST(GraphGen, RowPointersAreMonotonic)
{
    RmatParams p;
    p.scale = 10;
    Graph g = makeRmatGraph(p);
    for (std::size_t i = 1; i < g.row().size(); ++i)
        EXPECT_LE(g.row()[i - 1], g.row()[i]);
    EXPECT_EQ(g.row().back(), g.numEdges());
}

} // namespace abndp
