#include "workloads/graph_gen.hh"

#include "common/logging.hh"
#include "common/rng.hh"

namespace abndp
{

Graph
makeRmatGraph(const RmatParams &p)
{
    abndp_assert(p.a >= 0.0 && p.b >= 0.0 && p.c >= 0.0
                     && p.a + p.b + p.c < 1.0,
                 "bad R-MAT probabilities");
    std::uint32_t n = 1u << p.scale;
    std::uint64_t m = static_cast<std::uint64_t>(n) * p.edgeFactor;
    Rng rng(p.seed);
    // Cumulative thresholds, summed left to right; a, b, c >= 0 keeps
    // them monotone, as rmatQuadrant needs.
    const double t0 = p.a;
    const double t1 = p.a + p.b;
    const double t2 = p.a + p.b + p.c;

    std::vector<Graph::Edge> edges;
    edges.reserve(m);
    for (std::uint64_t e = 0; e < m; ++e) {
        std::uint32_t src = 0, dst = 0;
        for (std::uint32_t bit = 0; bit < p.scale; ++bit) {
            std::uint32_t quad = rmatQuadrant(rng.uniform(), t0, t1, t2);
            src = (src << 1) | (quad >> 1);
            dst = (dst << 1) | (quad & 1);
        }
        edges.emplace_back(src, dst);
    }
    return Graph::fromEdges(n, std::move(edges), p.undirected);
}

Graph
makeUniformGraph(std::uint32_t numVertices, std::uint64_t numEdges,
                 std::uint64_t seed, bool undirected)
{
    Rng rng(seed);
    std::vector<Graph::Edge> edges;
    edges.reserve(numEdges);
    for (std::uint64_t e = 0; e < numEdges; ++e) {
        auto src = static_cast<std::uint32_t>(rng.below(numVertices));
        auto dst = static_cast<std::uint32_t>(rng.below(numVertices));
        edges.emplace_back(src, dst);
    }
    return Graph::fromEdges(numVertices, std::move(edges), undirected);
}

Graph
makeGridGraph(std::uint32_t width, std::uint32_t height)
{
    std::vector<Graph::Edge> edges;
    edges.reserve(static_cast<std::size_t>(width) * height * 2);
    auto id = [width](std::uint32_t x, std::uint32_t y) {
        return y * width + x;
    };
    for (std::uint32_t y = 0; y < height; ++y) {
        for (std::uint32_t x = 0; x < width; ++x) {
            if (x + 1 < width)
                edges.emplace_back(id(x, y), id(x + 1, y));
            if (y + 1 < height)
                edges.emplace_back(id(x, y), id(x, y + 1));
        }
    }
    return Graph::fromEdges(width * height, std::move(edges), true);
}

} // namespace abndp
