#include "workloads/graph_layout.hh"

namespace abndp
{

void
GraphLayout::setup(SimAllocator &alloc)
{
    const std::uint32_t n = graph->numVertices();
    const std::vector<Addr> recAddr =
        alloc.allocateArray(recBytes, n, placement);
    adjAddr.assign(n, invalidAddr);
    for (std::uint32_t v = 0; v < n; ++v) {
        std::uint64_t bytes =
            static_cast<std::uint64_t>(graph->degree(v)) * edgeBytes;
        // Adjacency lives with its vertex (same home unit).
        if (bytes != 0)
            adjAddr[v] = alloc.allocate(
                bytes, alloc.map().homeOf(recAddr[v]), cachelineBytes);
    }

    // Hint lists: one entry per vertex and one per arc, so the degrees
    // size the array exactly. The records are read from recAddr here
    // and from the lists' first entries afterwards (vertexAddr()).
    hintAddr.resize(std::size_t{n} + graph->numEdges());
    std::uint64_t bound = hintAddr.size();
    for (std::uint32_t v = 0; v < n; ++v) {
        Addr *out = hintAddr.data() + hintBegin(v);
        *out++ = recAddr[v];
        for (std::uint32_t nb : graph->neighbors(v))
            *out++ = recAddr[nb];
        bound += adjacency(v).lines();
    }

    // Block lists: a hint derives at most its line count, so the
    // counted bound holds every list; each vertex's list is derived
    // once, packed behind the previous one, and the array is then
    // fitted to the packed length. On bench_e2e's pr-B cell this
    // measured a lower peak resident set than keeping the slack or
    // sizing the array exactly by a second derivation pass
    // (docs/ARCHITECTURE.md).
    blockAddr.resize(bound);
    blockOff.resize(std::size_t{n} + 1);
    std::uint64_t used = 0;
    for (std::uint32_t v = 0; v < n; ++v) {
        blockOff[v] = used;
        const AddrRange adj = adjacency(v);
        used += deriveBlocks(hintList(v), {&adj, 1},
                             blockAddr.data() + used);
    }
    blockOff[n] = used;
    blockAddr.resize(used);
    blockAddr.shrink_to_fit();
}

} // namespace abndp
