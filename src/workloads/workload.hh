/**
 * @file
 * Workload interface: a data-centric, bulk-synchronous application
 * expressed in the task model of Section 3.1.
 *
 * Workloads perform *real* computation (results are checked against
 * sequential reference implementations) while the simulator accounts the
 * timing/energy of the memory accesses declared in task hints.
 */

#ifndef ABNDP_WORKLOADS_WORKLOAD_HH
#define ABNDP_WORKLOADS_WORKLOAD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "mem/allocator.hh"
#include "tasking/task.hh"
#include "tasking/task_pool.hh"

namespace abndp
{

/** Base class of all ABNDP benchmark applications. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Short identifier ("pr", "bfs", ...). */
    virtual std::string name() const = 0;

    /**
     * Lay out the primary data in the simulated address space. Called
     * exactly once before any task executes.
     */
    virtual void setup(SimAllocator &alloc) = 0;

    /** Emit the tasks of timestamp 0. */
    virtual void emitInitialTasks(TaskSink &sink) = 0;

    /**
     * Functionally execute one task: compute real results into the
     * workload's next-state buffers and enqueue children (timestamp + 1)
     * into @p sink. Must be order-independent within a timestamp.
     */
    virtual void executeTask(const Task &task, TaskSink &sink) = 0;

    /**
     * End of a bulk-synchronous timestamp: atomically apply updates
     * (e.g., swap double buffers).
     */
    virtual void endEpoch(std::uint64_t ts) { (void)ts; }

    /**
     * Check final results against the sequential reference.
     * @retval true if the computation is correct.
     */
    virtual bool verify() const = 0;

    /**
     * Supply programmer workload hints (Section 3.1: hint.workload) so
     * the scheduler needs no estimation. Defaults to estimated loads;
     * workloads that support explicit hints override the flag.
     */
    void setExplicitLoadHints(bool on) { explicitLoadHints = on; }

  protected:
    /** When true, makeTask() should set hint.workload explicitly. */
    bool explicitLoadHints = false;
};

/**
 * Trivial TaskSink that runs every task immediately and in order; used by
 * workload unit tests and the host baseline's functional execution.
 * Tasks live in a TaskPool, as in NdpSystem: the epoch lists hold
 * handles, and a task's slot is recycled right after it runs, so the
 * executor holds the peak number of live tasks, not a growing buffer of
 * whole tasks per epoch.
 */
class ImmediateExecutor : public TaskSink
{
  public:
    explicit ImmediateExecutor(Workload &wl) : wl(wl) {}

    void
    enqueueTask(Task &&task) override
    {
        pending.push_back(pool.add(std::move(task)));
        ++nEnqueued;
    }

    /** Run bulk-synchronous epochs to completion (or maxEpochs). */
    std::uint64_t
    runToCompletion(std::uint64_t maxEpochs = 0)
    {
        std::uint64_t ts = 0;
        while (!pending.empty() && (maxEpochs == 0 || ts < maxEpochs)) {
            current.swap(pending);
            pending.clear();
            // Pool addresses are stable, so the task stays valid while
            // executeTask() adds its children.
            for (TaskRef ref : current) {
                wl.executeTask(pool[ref], *this);
                pool.release(ref);
            }
            wl.endEpoch(ts);
            current.clear();
            ++ts;
        }
        return ts;
    }

    std::uint64_t enqueued() const { return nEnqueued; }

  private:
    Workload &wl;
    TaskPool pool;
    std::vector<TaskRef> current;
    std::vector<TaskRef> pending;
    std::uint64_t nEnqueued = 0;
};

} // namespace abndp

#endif // ABNDP_WORKLOADS_WORKLOAD_HH
