/**
 * @file
 * Address-stable storage for the tasks an NdpSystem (or the functional
 * ImmediateExecutor) holds.
 *
 * A task is moved into the pool once, when the runtime accepts it (an
 * enqueue or a serving injection), and destroyed in place when a core
 * dispatches it. Everything in between (the unit queues, scheduling-
 * window forwards, steal and shed batches, recovery transits) carries
 * a 4-byte TaskRef, so a queue change copies a handle instead of moving
 * a Task, and a queue buffer that keeps its capacity across epochs
 * keeps room for handles, not for tasks.
 *
 * Slots live in fixed-size chunks that never move: a Task& taken from
 * the pool stays valid while other tasks are added (dispatch holds one
 * across Workload::executeTask, which enqueues the children). Released
 * slots go on a LIFO free list and are reused before a new chunk
 * opens, so the pool holds the peak number of live tasks, rounded up
 * to a chunk. Which slot a task gets never feeds back into the
 * simulation.
 */

#ifndef ABNDP_TASKING_TASK_POOL_HH
#define ABNDP_TASKING_TASK_POOL_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "tasking/task.hh"

namespace abndp
{

/** Handle to a task held by a TaskPool. */
struct TaskRef
{
    std::uint32_t index = 0;

    bool operator==(const TaskRef &) const = default;
};

/** Chunked task storage with stable addresses (see file comment). */
class TaskPool
{
  public:
    /** Slots per chunk: 2^10 tasks, ~248 KB. */
    static constexpr std::uint32_t chunkShift = 10;
    static constexpr std::uint32_t chunkSlots = 1u << chunkShift;

    TaskPool() = default;
    TaskPool(const TaskPool &) = delete;
    TaskPool &operator=(const TaskPool &) = delete;

    ~TaskPool()
    {
        for (std::uint32_t i = 0; i < fresh; ++i)
            if (used[i])
                std::destroy_at(&slot(i).task);
    }

    /** Move @p task into a free slot and return its handle. */
    TaskRef
    add(Task &&task)
    {
        std::uint32_t i;
        if (!freeSlots.empty()) {
            i = freeSlots.back();
            freeSlots.pop_back();
        } else {
            if (fresh == chunks.size() * chunkSlots)
                chunks.push_back(std::make_unique<Slot[]>(chunkSlots));
            i = fresh++;
            used.push_back(false);
        }
        std::construct_at(&slot(i).task, std::move(task));
        used[i] = true;
        return TaskRef{i};
    }

    /** The task behind @p ref; its address holds until release(ref). */
    Task &
    operator[](TaskRef ref)
    {
        abndp_assert(ref.index < fresh && used[ref.index],
                     "task handle ", ref.index, " is not live");
        return slot(ref.index).task;
    }

    /** Destroy the task behind @p ref and recycle its slot. */
    void
    release(TaskRef ref)
    {
        abndp_assert(ref.index < fresh && used[ref.index],
                     "task handle ", ref.index, " released twice");
        std::destroy_at(&slot(ref.index).task);
        used[ref.index] = false;
        freeSlots.push_back(ref.index);
    }

    /** Tasks currently held. */
    std::size_t live() const { return fresh - freeSlots.size(); }

    /** Slots in the opened chunks. */
    std::size_t capacity() const { return chunks.size() * chunkSlots; }

  private:
    /** Raw storage for one task; constructed only while live. */
    union Slot
    {
        Slot() {}
        ~Slot() {}
        Task task;
    };

    Slot &
    slot(std::uint32_t i)
    {
        return chunks[i >> chunkShift][i & (chunkSlots - 1)];
    }

    std::vector<std::unique_ptr<Slot[]>> chunks;
    /** Liveness per slot ever handed out (indexes [0, fresh)). */
    std::vector<bool> used;
    /** Released slots, reused last-in first-out. */
    std::vector<std::uint32_t> freeSlots;
    /** Slots handed out at least once; the next fresh slot's index. */
    std::uint32_t fresh = 0;
};

} // namespace abndp

#endif // ABNDP_TASKING_TASK_POOL_HH
