/**
 * @file
 * Host-only baseline H (paper Section 6): the same task-based workloads
 * executed on a server-class CPU with 16 out-of-order cores at 2.6 GHz, a
 * 20 MB shared LLC, and 4 channels of DDR4-2400. Modeled analytically:
 * out-of-order overlap is captured by dividing memory stall time by an
 * effective memory-level-parallelism factor.
 *
 * Like the NDP runtime, the host moves each accepted task once, into
 * its TaskPool; the running and the staged epoch are FIFOs of 4-byte
 * TaskRefs, and dispatch releases the slot once the task has run.
 */

#ifndef ABNDP_HOST_HOST_SYSTEM_HH
#define ABNDP_HOST_HOST_SYSTEM_HH

#include <memory>
#include <vector>

#include "cache/set_assoc_cache.hh"
#include "common/config.hh"
#include "core/metrics.hh"
#include "mem/allocator.hh"
#include "sim/bandwidth_meter.hh"
#include "sim/event_queue.hh"
#include "tasking/task.hh"
#include "tasking/task_deque.hh"
#include "tasking/task_pool.hh"
#include "workloads/workload.hh"

namespace abndp
{

/** Non-NDP reference machine running the same bulk-synchronous tasks. */
class HostSystem : public TaskSink
{
  public:
    explicit HostSystem(const SystemConfig &cfg);

    SimAllocator &allocator() { return alloc; }

    /** Run a workload to completion (or cfg.maxEpochs). */
    RunMetrics run(Workload &wl);

    void enqueueTask(Task &&task) override;

    /** The tasks the epoch lists' handles refer to. */
    const TaskPool &taskPool() const { return pool; }

  private:
    struct CoreState
    {
        bool busy = false;
        Tick activeTicks = 0;
    };

    void tryDispatch();
    Tick executeTiming(const Task &task, Tick start);

    SystemConfig cfg;
    SimAllocator alloc;
    EventQueue eq;
    SetAssocCache llc;
    std::vector<BandwidthMeter> channelMeter;
    std::vector<CoreState> cores;

    TaskPool pool;
    SlidingDeque<TaskRef> active;
    SlidingDeque<TaskRef> staged;
    Workload *workload = nullptr;
    std::uint64_t curEpoch = 0;
    std::uint64_t activeRemaining = 0;
    std::uint64_t totalTasks = 0;
    Tick lastCompletionTick = 0;
    bool inExecute = false;

    Tick llcHitTicks;
    Tick ddrLatencyTicks;
    double ddrTicksPerByte;
    double cycleTicks;
};

} // namespace abndp

#endif // ABNDP_HOST_HOST_SYSTEM_HH
