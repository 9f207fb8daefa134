/**
 * @file
 * One NDP unit as a first-class simulated component: its in-order
 * cores (each with private L1-D/L1-I/TLB), the Figure-4 task queues
 * with their scheduling and prefetch windows, and the per-unit
 * prefetch buffer.
 *
 * The queue fields are deliberately public: the epoch engine
 * (NdpSystem), the scheduling-window pump, and the stealing mechanics
 * all manipulate them directly, and the queues *are* the unit's
 * architectural interface (Figure 4). They hold TaskRef handles into
 * the NdpSystem's TaskPool, like the 32-byte descriptors the model
 * ships between units, not the tasks. NdpUnit owns the lifecycle —
 * construction, the per-epoch barrier swap, timestamp invalidation,
 * and stats registration — so the epoch engine no longer needs to
 * know what a unit is made of.
 */

#ifndef ABNDP_CORE_NDP_UNIT_HH
#define ABNDP_CORE_NDP_UNIT_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cache/prefetch_buffer.hh"
#include "cache/set_assoc_cache.hh"
#include "common/config.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "obs/stats_registry.hh"
#include "tasking/task_deque.hh"
#include "tasking/task_pool.hh"

namespace abndp
{

/** One in-order core with its private cache hierarchy. */
struct CoreState
{
    bool busy = false;
    Tick activeTicks = 0;
    std::uint64_t tasksRun = 0;
    /**
     * Serving mode only: arrival tick, tenant, and recovery mark of
     * the request this core is executing, stashed at dispatch so the
     * completion event can record its latency without carrying the
     * task (the completion capture must stay [this, u, c] to keep
     * batch runs byte-identical). Untouched in batch mode.
     */
    Tick servingArrival = 0;
    std::uint8_t servingTenant = 0;
    bool servingRecovered = false;
    std::unique_ptr<SetAssocCache> l1d;
    std::unique_ptr<SetAssocCache> l1i;
    /** Local TLB (Section 3.2); keys are page numbers. */
    std::unique_ptr<SetAssocCache> tlb;
};

/** One NDP unit: cores, task queues, and the prefetch buffer. */
class NdpUnit
{
  public:
    NdpUnit() = default;

    /** Build the cores, caches, and buffers for unit @p id. */
    void init(const SystemConfig &cfg, UnitId id);

    UnitId id() const { return unitId; }

    /**
     * Barrier swap at the start of an epoch: staged tasks become live,
     * the drained live queues hand their buffers to the staging side
     * (steady-state epochs allocate nothing), and the per-epoch window
     * state resets.
     * @return the number of live tasks this unit starts the epoch with.
     */
    std::uint64_t beginEpoch();

    /** Clear in-flight scheduling/stealing state (end of epoch). */
    void resetTransient();

    /** Timestamp boundary: drop all cached primary data (tag clear). */
    void invalidatePrimaryData();

    bool anyIdleCore() const;

    std::uint32_t busyCores() const;

    /** Total tasks executed across this unit's cores. */
    std::uint64_t tasksRun() const;

    /** Register per-core and prefetch-buffer stats under @p node. */
    void regStats(obs::StatNode &node) const;

    /** Tasks awaiting a scheduling decision (scheduling-window only). */
    SlidingDeque<TaskRef> pending;
    /** Tasks placed on this unit, awaiting execution. */
    SlidingDeque<TaskRef> ready;
    /** Next-epoch tasks (swapped into pending/ready at the barrier). */
    SlidingDeque<TaskRef> stagedPending;
    SlidingDeque<TaskRef> stagedReady;

    std::vector<CoreState> cores;
    std::unique_ptr<PrefetchBuffer> pb;
    /** Leading tasks of `ready` whose prefetches were issued. */
    std::uint32_t prefetchedCount = 0;
    /** The unit's task scheduler is processing a decision. */
    bool schedBusy = false;
    bool stealInFlight = false;
    Tick stealBackoff = 0;
    Rng rng{0};

  private:
    UnitId unitId = invalidUnit;
};

} // namespace abndp

#endif // ABNDP_CORE_NDP_UNIT_HH
