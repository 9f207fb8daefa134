/**
 * @file
 * Two-generation bump arena for task-hint storage.
 *
 * A task whose hint is not a function of one vertex (astar's per-query
 * hints, knn's leaf blocks, and the block list finalizeBlocks() derives
 * for any task that did not arrive with one) carries spans whose
 * lifetime is exactly one epoch: tasks for timestamp ts+1 are created
 * while ts executes and die when ts+1's barrier completes. Allocating
 * those spans individually (one std::vector per task per member)
 * dominated the allocator profile at scale; the arena replaces them
 * with pointer bumps into two alternating generations:
 *
 *   - during epoch ts, new allocations (hints of epoch ts+1's tasks) go
 *     to the *active* generation;
 *   - the epoch engine calls rotate() at every epoch boundary, flipping
 *     the active generation and resetting it. The generation being
 *     reset held epoch ts-1's hints, which are dead by construction.
 *
 * Vertex-centric graph tasks never touch it: they borrow run-lived
 * per-vertex lists from GraphLayout (workloads/graph_layout.hh), so a
 * pr, bfs, sssp, gcn or spmv run leaves the arena empty.
 *
 * The arena is owned by the workload generator (Workload base class):
 * hints are built by workload code, and each simulator instance owns
 * its workload, so the arena inherits the simulator's no-shared-state
 * threading model (the sweep tool runs instances on threads).
 *
 * Chunks grow geometrically and are coalesced into one block on reset,
 * so a steady-state epoch performs zero allocations. Addresses are
 * stable until the owning generation is reset.
 */

#ifndef ABNDP_TASKING_TASK_ARENA_HH
#define ABNDP_TASKING_TASK_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace abndp
{

/** Epoch-scoped bump allocator with two alternating generations. */
class TaskArena
{
  public:
    /**
     * Allocate uninitialized storage for @p n objects of type @p T in
     * the active generation. The storage lives until the generation is
     * reset (two rotate() calls later at the earliest).
     */
    template <typename T>
    T *
    alloc(std::size_t n)
    {
        return static_cast<T *>(
            regions[active].alloc(n * sizeof(T), alignof(T)));
    }

    /**
     * Epoch boundary: flip the active generation and reset the new one
     * (it held the hints of the epoch before last, now dead). Called by
     * the epoch engine before each epoch starts.
     */
    void
    rotate()
    {
        active ^= 1u;
        regions[active].reset();
    }

    /** Bytes currently reserved across both generations (tests). */
    std::size_t
    capacityBytes() const
    {
        return regions[0].capacity() + regions[1].capacity();
    }

  private:
    struct Chunk
    {
        std::unique_ptr<std::byte[]> mem;
        std::size_t size = 0;
    };

    struct Region
    {
        /** First chunk size; later chunks double. */
        static constexpr std::size_t minChunkBytes = std::size_t{1} << 16;

        std::vector<Chunk> chunks;
        std::size_t cur = 0;  // chunk being bump-allocated
        std::size_t used = 0; // bytes consumed in chunks[cur]

        void *
        alloc(std::size_t bytes, std::size_t align)
        {
            if (bytes == 0)
                bytes = align; // distinct non-null pointers, keep simple
            std::size_t at = (used + align - 1) & ~(align - 1);
            if (chunks.empty() || at + bytes > chunks[cur].size) {
                grow(bytes);
                at = 0;
            }
            used = at + bytes;
            return chunks[cur].mem.get() + at;
        }

        void
        grow(std::size_t bytes)
        {
            // Advance to an already-reserved chunk when one fits (the
            // post-reset single chunk), else append a doubled one.
            if (!chunks.empty() && cur + 1 < chunks.size()
                && chunks[cur + 1].size >= bytes) {
                ++cur;
                used = 0;
                return;
            }
            std::size_t sz = chunks.empty()
                ? minChunkBytes
                : chunks.back().size * 2;
            if (sz < bytes)
                sz = bytes;
            chunks.push_back(
                Chunk{std::make_unique<std::byte[]>(sz), sz});
            cur = chunks.size() - 1;
            used = 0;
        }

        void
        reset()
        {
            // Coalesce: replace a fragmented chunk list with one block
            // of the combined size, so the next generation bump-fills a
            // single allocation (and later resets allocate nothing).
            if (chunks.size() > 1) {
                std::size_t total = 0;
                for (const Chunk &c : chunks)
                    total += c.size;
                chunks.clear();
                chunks.push_back(
                    Chunk{std::make_unique<std::byte[]>(total), total});
            }
            cur = 0;
            used = 0;
        }

        std::size_t
        capacity() const
        {
            std::size_t total = 0;
            for (const Chunk &c : chunks)
                total += c.size;
            return total;
        }
    };

    Region regions[2];
    unsigned active = 0;
};

} // namespace abndp

#endif // ABNDP_TASKING_TASK_ARENA_HH
