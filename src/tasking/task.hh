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
 * The hint spans (data, ranges, writes, and the runtime-memoized block
 * list) are SmallVec spans: small hints live inline in the task object
 * and larger ones spill into the per-epoch TaskArena owned by the
 * workload generator, so task creation performs no per-member heap
 * allocation. The NDP runtime moves each accepted task once, into its
 * TaskPool (tasking/task_pool.hh); queues, forwards, steals and
 * recovery transits then carry a 4-byte TaskRef, and dispatch destroys
 * the task in its slot. Tasks are move-only; the rare test or tool
 * that needs a duplicate calls clone().
 */

#ifndef ABNDP_TASKING_TASK_HH
#define ABNDP_TASKING_TASK_HH

#include <algorithm>
#include <cstdint>

#include "common/types.hh"
#include "tasking/small_vec.hh"
#include "tasking/task_arena.hh"

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

    // ---- Fields managed by the runtime, not the workload ----
    /**
     * Memoized sorted, deduplicated block addresses of the hint, filled
     * by finalizeBlocks() at enqueue so neither the prefetcher nor the
     * execution walk re-derives (and re-sorts) them per visit. Empty
     * means "not memoized": consumers fall back to deriving the list,
     * which is exact because an empty hint also derives an empty list.
     */
    SmallVec<Addr, 2> blocks;
    /** Memoized hint.totalLines(), set alongside blocks. 0 = unset. */
    std::uint64_t hintLines = 0;
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

    /** Explicit deep copy for tests/tools (heap-backed spans). */
    Task
    clone() const
    {
        Task t;
        t.func = func;
        t.timestamp = timestamp;
        t.arg = arg;
        t.hint = hint;
        t.writes = writes;
        t.computeInstrs = computeInstrs;
        t.blocks = blocks;
        t.hintLines = hintLines;
        t.mainHome = mainHome;
        t.loadEstimate = loadEstimate;
        t.prefetched = prefetched;
        t.forwardHops = forwardHops;
        t.recovered = recovered;
        t.redispatchCount = redispatchCount;
        t.servingArrival = servingArrival;
        t.tenant = tenant;
        return t;
    }

    /**
     * Memoize the hint-derived per-task state: totalLines() for the
     * load estimate and the sorted deduplicated block list for the
     * access path. Called once at enqueue by the runtime that owns
     * @p arena (the workload generator's epoch arena).
     */
    void
    finalizeBlocks(TaskArena &arena)
    {
        hintLines = hint.totalLines();
        blocks.clear();
        std::size_t cnt = hint.data.size();
        for (const auto &r : hint.ranges)
            cnt += r.lines();
        if (cnt == 0)
            return;
        blocks.reserveIn(arena, cnt);
        for (Addr a : hint.data)
            blocks.push_back(blockAlign(a));
        for (const auto &r : hint.ranges)
            for (Addr a = blockAlign(r.start); a < r.start + r.bytes;
                 a += cachelineBytes)
                blocks.push_back(a);
        std::sort(blocks.begin(), blocks.end());
        blocks.truncate(static_cast<std::size_t>(
            std::unique(blocks.begin(), blocks.end()) - blocks.begin()));
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
