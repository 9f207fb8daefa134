/**
 * @file
 * Swarm-like task abstraction (paper Section 3.1).
 *
 * A task carries a function opcode, a timestamp (bulk-synchronous epoch),
 * a hint with the addresses of all primary data it will read plus an
 * optional workload estimate, and an argument. Tasks with equal
 * timestamps run in parallel; updates become visible when the timestamp
 * ends. By convention hint.data[0] is the address of the task's main
 * (to-be-updated) element, which defines its "home" for co-location.
 *
 * The hint spans (data, ranges, writes, and the memoized block list)
 * are SmallVec spans. A vertex-centric task borrows its address and
 * block lists from the run-lived per-vertex lists GraphLayout builds
 * once; other small hints live inline in the task object, and longer
 * ones on the heap, owned by the task and freed with it. The NDP
 * runtime moves each accepted task once, into its TaskPool
 * (tasking/task_pool.hh); queues, forwards, steals and recovery
 * transits then carry a 4-byte TaskRef, and dispatch destroys the task
 * in its slot. Tasks are move-only.
 */

#ifndef ABNDP_TASKING_TASK_HH
#define ABNDP_TASKING_TASK_HH

#include <algorithm>
#include <cstdint>
#include <span>

#include "common/types.hh"
#include "tasking/small_vec.hh"

namespace abndp
{

/** A contiguous range of primary data read by a task. */
struct AddrRange
{
    Addr start = 0;
    std::uint32_t bytes = 0;

    /** Number of cache lines the range touches. */
    std::uint32_t
    lines() const
    {
        if (bytes == 0)
            return 0;
        Addr first = blockAlign(start);
        Addr last = blockAlign(start + bytes - 1);
        return static_cast<std::uint32_t>((last - first) / cachelineBytes
                                          + 1);
    }
};

/** Scheduler-visible information attached to each task. */
struct TaskHint
{
    /** Primary-data read addresses; data[0] is the main element. */
    SmallVec<Addr, 2> data;
    /**
     * Contiguous primary-data ranges (Section 3.1 allows "single
     * cacheline addresses or address ranges"); e.g., adjacency lists.
     */
    SmallVec<AddrRange, 1> ranges;
    /**
     * Optional programmer-supplied computation load. 0 means unset, in
     * which case the scheduler estimates the load from the memory access
     * cost of the hint addresses (Section 3.1).
     */
    std::uint64_t workload = 0;

    /** Total cache lines referenced by the hint. */
    std::uint64_t
    totalLines() const
    {
        std::uint64_t n = data.size();
        for (const auto &r : ranges)
            n += r.lines();
        return n;
    }
};

/**
 * The one derivation of a hint's block list: write the sorted,
 * deduplicated cache-block addresses of @p data and of every line of
 * @p ranges to @p out, and return how many were written. @p out needs
 * room for data.size() plus the ranges' lines (TaskHint::totalLines()).
 * Task::finalizeBlocks() and GraphLayout's per-vertex build both call
 * it, so a borrowed list and a derived one cannot disagree.
 */
inline std::size_t
deriveBlocks(std::span<const Addr> data, std::span<const AddrRange> ranges,
             Addr *out)
{
    std::size_t n = 0;
    for (Addr a : data)
        out[n++] = blockAlign(a);
    for (const AddrRange &r : ranges) {
        Addr a = blockAlign(r.start);
        for (std::uint32_t i = r.lines(); i > 0; --i, a += cachelineBytes)
            out[n++] = a;
    }
    std::sort(out, out + n);
    return static_cast<std::size_t>(std::unique(out, out + n) - out);
}

/** deriveBlocks() over a whole hint. */
inline std::size_t
deriveBlocks(const TaskHint &hint, Addr *out)
{
    return deriveBlocks({hint.data.data(), hint.data.size()},
                        {hint.ranges.data(), hint.ranges.size()}, out);
}

/** One unit of data-centric work. */
struct Task
{
    /** Workload-defined function opcode. */
    std::uint32_t func = 0;
    /** Bulk-synchronous timestamp (epoch number). */
    std::uint64_t timestamp = 0;
    /** Workload-defined argument (e.g., vertex id, row id, query id). */
    std::uint64_t arg = 0;
    /** Scheduler hint: read addresses + optional load. */
    TaskHint hint;
    /** Addresses written at task completion (bypass caches, to home). */
    SmallVec<Addr, 2> writes;
    /** Non-memory instruction estimate for timing/energy. */
    std::uint64_t computeInstrs = 0;

    // ---- Fields managed by the runtime, not the workload (a vertex
    // task may arrive with its block list already borrowed) ----
    /**
     * Memoized sorted, deduplicated block addresses of the hint
     * (deriveBlocks()), so neither the prefetcher nor the execution
     * walk re-derives (and re-sorts) them per visit. A vertex-centric
     * task arrives with the list borrowed from GraphLayout; otherwise
     * finalizeBlocks() fills it when a runtime accepts the task.
     */
    SmallVec<Addr, 2> blocks;
    /** Home unit of the main element (set on enqueue). */
    UnitId mainHome = invalidUnit;
    /** Scheduler load estimate used for the W counters. */
    double loadEstimate = 0.0;
    /** True once the prefetch unit issued this task's hint prefetches. */
    bool prefetched = false;
    /** Times this task was forwarded between scheduling windows. */
    std::uint8_t forwardHops = 0;
    /**
     * True once the unit-failure recovery protocol touched this task:
     * drained from a failing unit's queues, or redispatched after a
     * delivery-ack timeout. Feeds the task-conservation-under-failure
     * law (staged == executed-direct + executed-recovered, src/check).
     */
    bool recovered = false;
    /** Delivery-ack redispatch attempts consumed (capped backoff). */
    std::uint8_t redispatchCount = 0;
    /**
     * Serving mode only: the tick this request arrived at the driver
     * (latency = completion - arrival) and its tenant. Both stay zero
     * in batch runs.
     */
    Tick servingArrival = 0;
    std::uint8_t tenant = 0;

    // Move-only: the hint spans have one owner, moved with the task
    // into the runtime's pool; an accidental copy would silently
    // re-heap them.
    Task() = default;
    Task(Task &&) noexcept = default;
    Task &operator=(Task &&) noexcept = default;
    Task(const Task &) = delete;
    Task &operator=(const Task &) = delete;

    /**
     * Memoize the sorted deduplicated block list of the hint for the
     * access path. Every runtime calls it once, when it accepts the
     * task (NdpSystem's enqueue and serving injection, HostSystem's
     * enqueue). A task whose list is already memoized (borrowed with
     * its hint) is left as it is; an empty hint keeps an empty list.
     */
    void
    finalizeBlocks()
    {
        if (!blocks.empty())
            return;
        blocks.resize(hint.totalLines());
        blocks.truncate(deriveBlocks(hint, blocks.data()));
    }
};

/**
 * Destination for enqueue_task(): the NDP runtime (which schedules the
 * task) or a test collector.
 */
class TaskSink
{
  public:
    virtual ~TaskSink() = default;

    /**
     * Enqueue a child task (the enqueue_task API). Called both for the
     * initial task set and from inside executeTask(); children must carry
     * timestamp = parent.timestamp + 1.
     */
    virtual void enqueueTask(Task &&task) = 0;
};

} // namespace abndp

#endif // ABNDP_TASKING_TASK_HH
