#include "workloads/graph.hh"

#include <algorithm>
#include <numeric>

#include "common/logging.hh"

namespace abndp
{

Graph
Graph::fromEdges(std::uint32_t numVertices, std::vector<Edge> edges,
                 bool undirected)
{
    Graph g;
    g.nV = numVertices;
    // Sized in 64 bits: numVertices + 1 must not wrap at 2^32 - 1.
    g.rowPtr.assign(std::size_t{numVertices} + 1, 0);

    // Count each row's arcs (both directions if undirected). Self-loops
    // are dropped, and every other endpoint is range-checked before it
    // indexes anything.
    for (const auto &[src, dst] : edges) {
        if (src == dst)
            continue;
        abndp_assert(src < numVertices && dst < numVertices,
                     "edge endpoint out of range");
        ++g.rowPtr[std::size_t{src} + 1];
        if (undirected)
            ++g.rowPtr[std::size_t{dst} + 1];
    }
    std::partial_sum(g.rowPtr.begin(), g.rowPtr.end(), g.rowPtr.begin());

    // Scatter every arc into its row, in input order.
    g.colIdx.resize(g.rowPtr.back());
    std::vector<std::uint64_t> cursor(g.rowPtr.begin(), g.rowPtr.end() - 1);
    for (const auto &[src, dst] : edges) {
        if (src == dst)
            continue;
        g.colIdx[cursor[src]++] = dst;
        if (undirected)
            g.colIdx[cursor[dst]++] = src;
    }

    // Sort and dedup each row, shifting it left over the gaps the
    // duplicates of earlier rows left. Row v was [begin, rowPtr[v + 1]).
    std::uint32_t *col = g.colIdx.data();
    std::uint64_t begin = 0;
    std::uint64_t out = 0;
    for (std::size_t v = 0; v < numVertices; ++v) {
        std::uint64_t end = g.rowPtr[v + 1];
        std::sort(col + begin, col + end);
        std::uint32_t *last = std::unique(col + begin, col + end);
        if (out != begin)
            std::copy(col + begin, last, col + out);
        out += static_cast<std::uint64_t>(last - (col + begin));
        g.rowPtr[v + 1] = out;
        begin = end;
    }
    // The graph lives through the run: hand back the duplicates' slots.
    g.colIdx.resize(out);
    g.colIdx.shrink_to_fit();
    return g;
}

Graph
Graph::transposed() const
{
    Graph t;
    t.nV = nV;
    t.rowPtr.assign(std::size_t{nV} + 1, 0);
    for (std::uint32_t dst : colIdx)
        ++t.rowPtr[std::size_t{dst} + 1];
    std::partial_sum(t.rowPtr.begin(), t.rowPtr.end(), t.rowPtr.begin());

    // Sources are scattered in ascending order, so every reversed row
    // comes out sorted; with no duplicate arc or self-loop here, the
    // transpose has none either.
    t.colIdx.resize(colIdx.size());
    std::vector<std::uint64_t> cursor(t.rowPtr.begin(), t.rowPtr.end() - 1);
    for (std::uint32_t v = 0; v < nV; ++v)
        for (std::uint32_t n : neighbors(v))
            t.colIdx[cursor[n]++] = v;
    return t;
}

std::uint32_t
Graph::maxDegree() const
{
    std::uint32_t m = 0;
    for (std::uint32_t v = 0; v < nV; ++v)
        m = std::max(m, degree(v));
    return m;
}

} // namespace abndp
