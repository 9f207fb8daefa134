/**
 * @file
 * Simulated-memory layout shared by the graph workloads: per-vertex
 * property records distributed element-interleaved across NDP units (the
 * paper's baseline placement) and per-vertex adjacency lists stored in
 * the same unit as their vertex.
 *
 * A vertex-centric task's hint is a pure function of its vertex, so the
 * layout builds every vertex's hint address list and block list once,
 * in setup(), and tasks borrow them (SmallVec's borrowed tier) for the
 * rest of the run instead of rebuilding and re-sorting them in every
 * iteration.
 */

#ifndef ABNDP_WORKLOADS_GRAPH_LAYOUT_HH
#define ABNDP_WORKLOADS_GRAPH_LAYOUT_HH

#include <cstdint>
#include <span>
#include <vector>

#include "mem/allocator.hh"
#include "tasking/task.hh"
#include "workloads/graph.hh"

namespace abndp
{

/** Address layout of one graph's primary data. */
class GraphLayout
{
  public:
    /**
     * @param graph the topology to lay out
     * @param vertexRecBytes bytes per vertex property record
     * @param bytesPerEdge bytes per adjacency entry (index + optional
     *        weight)
     */
    GraphLayout(const Graph &graph, std::uint32_t vertexRecBytes,
                std::uint32_t bytesPerEdge = 4,
                Placement placement = Placement::Interleaved)
        : graph(&graph), recBytes(vertexRecBytes), edgeBytes(bytesPerEdge),
          placement(placement)
    {
    }

    /**
     * Allocate all records and adjacency lists, then build every
     * vertex's hint address list and block list (see hintList() and
     * blockList()). The degrees size the hint array exactly; the block
     * array is filled within the counted line bound, then fitted to
     * its packed length.
     */
    void setup(SimAllocator &alloc);

    /** Address of vertex @p v's property record. */
    Addr vertexAddr(std::uint32_t v) const { return hintAddr[hintBegin(v)]; }

    /**
     * Give @p task the standard hint of a vertex-centric task on @p v:
     * hint.data borrows hintList(v), v's adjacency lines are the one
     * inline range, and blocks borrows blockList(v), so
     * Task::finalizeBlocks() has nothing left to do.
     * The lists live as long as the layout, outliving every task.
     */
    void
    borrowVertexHint(std::uint32_t v, Task &task) const
    {
        const auto data = hintList(v);
        task.hint.data.borrow(data.data(), data.size());
        task.hint.ranges.clear();
        const AddrRange adj = adjacency(v);
        if (adj.bytes != 0)
            task.hint.ranges.push_back(adj);
        const auto blocks = blockList(v);
        task.blocks.borrow(blocks.data(), blocks.size());
    }

  private:
    /**
     * Vertex @p v's hint addresses: its record (the main element), then
     * every neighbour's record in adjacency order.
     */
    std::span<const Addr>
    hintList(std::uint32_t v) const
    {
        return {hintAddr.data() + hintBegin(v),
                std::size_t{graph->degree(v)} + 1};
    }

    /**
     * Vertex @p v's adjacency list as an address range (zero bytes for
     * a vertex without neighbours).
     */
    AddrRange
    adjacency(std::uint32_t v) const
    {
        return {adjAddr[v],
                static_cast<std::uint32_t>(
                    std::uint64_t{graph->degree(v)} * edgeBytes)};
    }

    /**
     * The sorted, deduplicated blocks of @p v's hint: deriveBlocks()
     * over hintList(v) and adjacency(v).
     */
    std::span<const Addr>
    blockList(std::uint32_t v) const
    {
        return {blockAddr.data() + blockOff[v],
                blockAddr.data() + blockOff[v + 1]};
    }

    /** Where hintList(v) starts: v's entry plus one per earlier arc. */
    std::uint64_t
    hintBegin(std::uint32_t v) const
    {
        return v + graph->edgeOffset(v);
    }

    const Graph *graph;
    std::uint32_t recBytes;
    std::uint32_t edgeBytes;
    Placement placement;
    /** Every vertex's hint list, back to back (hintBegin()). */
    std::vector<Addr> hintAddr;
    /** Every vertex's block list, back to back; v's is blockOff[v..v+1). */
    std::vector<Addr> blockAddr;
    std::vector<std::uint64_t> blockOff;
    /** Adjacency list base per vertex; invalidAddr without neighbours. */
    std::vector<Addr> adjAddr;
};

} // namespace abndp

#endif // ABNDP_WORKLOADS_GRAPH_LAYOUT_HH
