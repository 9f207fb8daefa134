/**
 * @file
 * The unified access path: every block a task touches flows through
 * the same chain — prefetch buffer, private L1-D, TLB translation,
 * then the Traveller/DRAM memory system — driven by one
 * AccessRequest descriptor per block (Section 4.4).
 *
 * AccessPath owns the task-granularity timing walk (instruction
 * fetch, translation, demand misses with a bounded miss pipeline) and
 * the hint-prefetch issue path, which previously lived hand-threaded
 * inside the epoch engine. An optional per-level completion observer
 * reports which level served each block; like everything under obs::,
 * it is observational only — nothing it computes may feed back into
 * timing or an Rng stream.
 */

#ifndef ABNDP_CORE_ACCESS_PATH_HH
#define ABNDP_CORE_ACCESS_PATH_HH

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/config.hh"
#include "core/access_types.hh"
#include "core/mem_system.hh"
#include "core/ndp_unit.hh"
#include "energy/energy.hh"
#include "fault/fault_model.hh"
#include "tasking/task.hh"

namespace abndp
{

/** Core-to-DRAM access chain shared by all units. */
class AccessPath
{
  public:
    /**
     * Called when a level completes a request: the descriptor, the
     * level that served it, and the completion tick. Observational
     * only (see file comment).
     */
    using LevelObserver =
        std::function<void(const AccessRequest &, AccessLevel, Tick)>;

    AccessPath(const SystemConfig &cfg, MemSystem &mem,
               EnergyAccount &energy, const FaultModel &faults);

    /**
     * The task's sorted deduplicated block addresses: the memoized list
     * when present (borrowed from GraphLayout or filled by
     * Task::finalizeBlocks()), otherwise deriveBlocks() into scratch
     * (serving tasks without a borrowed list, and hand-built test
     * tasks that bypass the enqueue path). The span is valid until the
     * next taskBlocks() call.
     */
    std::span<const Addr> taskBlocks(const Task &task);

    /** Per-task prefetch quota in blocks (buffer size / window). */
    std::uint32_t prefetchQuota() const { return quota; }

    /**
     * Issue hint prefetches for @p task on @p unit: fetch every hint
     * block not already buffered or resident in a core's L1, up to
     * the quota; larger hints finish on demand.
     */
    void prefetchTask(NdpUnit &unit, Task &task, Tick now);

    /**
     * Timing model for @p task executing on @p unit's core
     * @p coreIdx from @p start.
     * @return the completion tick.
     */
    Tick executeTask(NdpUnit &unit, std::uint32_t coreIdx,
                     const Task &task, Tick start);

    /** Install (or clear, with nullptr) the per-level observer. */
    void setLevelObserver(LevelObserver obs) { observer = std::move(obs); }

  private:
    void
    notify(const AccessRequest &req, AccessLevel level, Tick done) const
    {
        if (observer)
            observer(req, level, done);
    }

    const SystemConfig &cfg;
    MemSystem &mem;
    EnergyAccount &energy;
    const FaultModel &faults;

    /** Per-task prefetch quota in blocks. */
    std::uint32_t quota;
    Tick pbHitTicks;
    Tick l1HitTicks;
    Tick tlbMissTicks;
    Tick l1iMissTicks;
    std::uint32_t pageShift;

    /** Scratch for per-task block deduplication. */
    std::vector<Addr> blockScratch;

    LevelObserver observer;
};

} // namespace abndp

#endif // ABNDP_CORE_ACCESS_PATH_HH
