/**
 * @file
 * Machine-level invariant checkers (the first leg of the correctness
 * harness; see docs/TESTING.md): conservation laws the simulated
 * machine must satisfy at every epoch boundary and at the end of a
 * run, asserted against the live NdpSystem state.
 *
 * The checker is armed by SystemConfig::checkInvariants and follows
 * the obs:: conventions: purely observational (it never feeds timing
 * or an Rng stream — GoldenMetrics stays bit-identical with checkers
 * on), and zero-overhead when off (NdpSystem constructs no checker
 * and every hook site is a null test).
 *
 * Each conservation law is factored into a static predicate taking
 * raw values, so the perturbation tests (tests/test_check_invariants.cc)
 * can feed deliberately inconsistent numbers and prove that every
 * checker actually fires; the epoch/run hooks merely gather the values
 * from the machine and delegate.
 */

#ifndef ABNDP_CHECK_MACHINE_CHECKER_HH
#define ABNDP_CHECK_MACHINE_CHECKER_HH

#include <cstdint>
#include <vector>

#include "check/check_context.hh"
#include "common/types.hh"
#include "energy/energy.hh"

namespace abndp
{

class NdpSystem;
struct RunMetrics;
struct Task;

namespace check
{

/** Asserts machine conservation laws at epoch and run boundaries. */
class MachineChecker
{
  public:
    explicit MachineChecker(NdpSystem &sys);

    /** The violation collector (shared with the Network hop checks). */
    CheckContext &context() { return ctx; }

    /**
     * Epoch-boundary hook, called *before* startEpoch() dispatches any
     * task: snapshots per-unit counter bases and requires every
     * timestamp-invalidated structure to be empty.
     *
     * @param epoch the bulk-synchronous timestamp about to start
     * @param stagedTasks tasks staged for this epoch (they must all
     *                    complete exactly once by onEpochEnd)
     */
    void onEpochStart(std::uint64_t epoch, std::uint64_t stagedTasks);

    /**
     * Epoch-drain hook, called when activeRemaining hit zero (before
     * pending bookkeeping events are cancelled): task conservation,
     * queue drain, cache occupancy/hit-miss reconciliation, NoC hop
     * accounting, and energy monotonicity.
     *
     * @param executedDirect tasks executed on their assigned unit
     * @param executedRecovered tasks executed after the unit-failure
     *                          recovery protocol touched them (queue
     *                          drain or delivery-ack redispatch); zero
     *                          whenever no unit failure is configured
     * @param stagedTasks tasks staged for the next epoch so far
     */
    void onEpochEnd(std::uint64_t epoch, std::uint64_t executedDirect,
                    std::uint64_t executedRecovered,
                    std::uint64_t stagedTasks);

    /**
     * Run-end hook: metrics reconciliation, the task-pool drain, and
     * bandwidth audits.
     */
    void onRunEnd(const RunMetrics &m);

    /**
     * Re-homing hook, called right after MemSystem::migrateBlock():
     * no camp cache in the machine may still hold @p block. Probes
     * every unit, not only the block's camps, so it also proves that
     * the targeted invalidation found every copy.
     */
    void onBlockMigrated(Addr block);

    /**
     * Enqueue hook, called once a task's block memo is final: at
     * enqueue (after Task::finalizeBlocks()) and at serving injection.
     * Runs checkBlockMemo().
     */
    void onTaskEnqueued(const Task &task);

    // ---- Primitive conservation predicates (perturbation-testable) ----

    /** Every task spawned for an epoch completes exactly once. */
    static void
    checkTaskConservation(CheckContext &ctx, std::uint64_t epoch,
                          std::uint64_t staged, std::uint64_t executed)
    {
        ctx.require(staged == executed, "task conservation: epoch ",
                    epoch, " staged ", staged, " tasks but executed ",
                    executed,
                    " (a task was lost or ran twice across "
                    "forward/steal)");
    }

    /**
     * Task conservation under unit failures: every staged task still
     * executes exactly once — either directly on its assigned unit or
     * after the recovery protocol re-injected it (queue drain or
     * delivery-ack redispatch) — and the two splits are disjoint.
     */
    static void
    checkTaskConservationUnderFailure(CheckContext &ctx,
                                      std::uint64_t epoch,
                                      std::uint64_t staged,
                                      std::uint64_t direct,
                                      std::uint64_t recovered)
    {
        ctx.require(staged == direct + recovered,
                    "task conservation under failure: epoch ", epoch,
                    " staged ", staged, " tasks but executed ", direct,
                    " directly + ", recovered, " recovered (a task was "
                    "lost, ran twice, or lost its recovery marker)");
    }

    /**
     * Serving-mode request conservation: every generated arrival is
     * accounted for exactly once — rejected by admission control,
     * completed directly, or completed after the recovery protocol
     * touched its task. Trivially holds (all zeros) in batch runs.
     */
    static void
    checkServingConservation(CheckContext &ctx, std::uint64_t injected,
                             std::uint64_t rejected,
                             std::uint64_t direct,
                             std::uint64_t recovered)
    {
        ctx.require(injected == rejected + direct + recovered,
                    "serving request conservation: ", injected,
                    " arrivals != ", rejected, " rejected + ", direct,
                    " completed direct + ", recovered,
                    " completed recovered (a request was lost, served "
                    "twice, or mis-classified)");
    }

    /**
     * Data re-homing conservation: with camp caching on, every block
     * migration runs exactly one stale-camp invalidation; without a
     * camp cache there is nothing to invalidate and the count must
     * stay zero. A missed invalidation would leave a Traveller entry
     * serving reads for a block its home no longer owns.
     */
    static void
    checkMigrationConservation(CheckContext &ctx, std::uint64_t migrated,
                               std::uint64_t invalidations,
                               bool cachingEnabled)
    {
        std::uint64_t want = cachingEnabled ? migrated : 0;
        ctx.require(invalidations == want,
                    "migration conservation: ", migrated,
                    " blocks re-homed but ", invalidations,
                    " stale-camp invalidations ran (expected ", want,
                    "; a missed invalidation leaves a stale Traveller "
                    "entry serving a moved block)");
    }

    /**
     * With no task left to run, no unit carries scheduler load: every
     * task move hands its load credit on with the task and dispatch
     * takes it off, so a credit left on unit @p u (@p trueW) is
     * phantom load that skews every exchange snapshot after it.
     */
    static void
    checkLoadDrained(CheckContext &ctx, std::uint32_t u, double trueW)
    {
        ctx.require(trueW == 0.0, "load drained: unit ", u,
                    " still carries scheduler load ", trueW,
                    " with no task left (a task move left its load "
                    "credit behind)");
    }

    /**
     * The task pool holds exactly the tasks still staged: every task
     * that ran released its slot at dispatch, so a run leaves none
     * (@p staged is zero) or, cut by maxEpochs, only the @p staged
     * tasks of the epoch it did not run. A surplus slot is a task that
     * was dropped without running or a slot dispatch never released.
     */
    static void
    checkTaskPoolDrained(CheckContext &ctx, std::uint64_t live,
                         std::uint64_t staged)
    {
        ctx.require(live == staged, "task pool drained: ", live,
                    " tasks still hold pool slots but ", staged,
                    " are staged (a task was dropped unrun or its slot "
                    "was never released)");
    }

    /**
     * A task's memoized per-hint state is what its hint derives:
     * hintLines equals hint.totalLines(), and a memoized (nonempty)
     * block list equals deriveBlocks() over the hint, entry for entry.
     * A vertex task borrows both from run-lived per-vertex lists, so a
     * stale or corrupted list would silently move every access of the
     * tasks that borrow it.
     */
    static void checkBlockMemo(CheckContext &ctx, const Task &task);

    /**
     * After a re-homing, no camp cache holds the moved block: @p holders
     * counts the units whose Traveller still contains it.
     */
    static void
    checkNoStaleCampCopy(CheckContext &ctx, Addr block,
                         std::uint32_t holders)
    {
        ctx.require(holders == 0, "stale camp copy: block ", block,
                    " is still cached at ", holders,
                    " units after re-homing (the invalidation missed a "
                    "camp that holds it)");
    }

    /**
     * A cache's occupancy equals insertions minus evictions since its
     * last bulk invalidation and never exceeds its capacity.
     */
    static void
    checkOccupancy(CheckContext &ctx, const char *what, std::uint32_t u,
                   std::uint64_t occupancy, std::uint64_t inserts,
                   std::uint64_t evicts, std::uint64_t capacity)
    {
        ctx.require(inserts >= evicts && occupancy == inserts - evicts,
                    what, " unit ", u, " occupancy ", occupancy,
                    " != insertions ", inserts, " - evictions ", evicts,
                    " since bulk invalidation");
        ctx.require(occupancy <= capacity, what, " unit ", u,
                    " occupancy ", occupancy, " exceeds capacity ",
                    capacity, " blocks");
    }

    /**
     * Per-unit hit/miss counters sum to the machine-level totals
     * (every probe is counted exactly once, at exactly one unit).
     */
    static void
    checkHitMissTotals(CheckContext &ctx, const char *what,
                       std::uint64_t unitHits, std::uint64_t unitMisses,
                       std::uint64_t totalHits, std::uint64_t totalMisses)
    {
        ctx.require(unitHits == totalHits, what,
                    ": per-unit hits sum to ", unitHits,
                    " but the machine counted ", totalHits);
        ctx.require(unitMisses == totalMisses, what,
                    ": per-unit misses sum to ", unitMisses,
                    " but the machine counted ", totalMisses);
    }

    /**
     * NoC hop accounting: the hops every packet actually walked must
     * sum to the topology (Manhattan) distances of their endpoints.
     */
    static void
    checkHopAccounting(CheckContext &ctx, std::uint64_t walked,
                       std::uint64_t expected)
    {
        ctx.require(walked == expected, "NoC hop accounting: packets "
                    "walked ", walked, " inter-stack hops but the "
                    "topology distances of their endpoints sum to ",
                    expected);
    }

    /** The energy total equals the sum of the per-component terms. */
    static void
    checkEnergyAdditivity(CheckContext &ctx, const EnergyBreakdown &bd)
    {
        double manual = bd.coreSramPj + bd.dramMemPj + bd.dramCachePj
            + bd.netPj + bd.staticPj;
        ctx.require(bd.total() == manual, "energy additivity: total() ",
                    bd.total(), " pJ != component sum ", manual, " pJ");
        ctx.require(bd.coreSramPj >= 0.0 && bd.dramMemPj >= 0.0
                        && bd.dramCachePj >= 0.0 && bd.netPj >= 0.0
                        && bd.staticPj >= 0.0,
                    "energy components must be non-negative (core ",
                    bd.coreSramPj, ", dramMem ", bd.dramMemPj,
                    ", dramCache ", bd.dramCachePj, ", net ", bd.netPj,
                    ", static ", bd.staticPj, ")");
    }

    /** Accumulated energy never decreases across epochs. */
    static void
    checkEnergyMonotone(CheckContext &ctx, const EnergyBreakdown &prev,
                        const EnergyBreakdown &cur)
    {
        ctx.require(cur.coreSramPj >= prev.coreSramPj
                        && cur.dramMemPj >= prev.dramMemPj
                        && cur.dramCachePj >= prev.dramCachePj
                        && cur.netPj >= prev.netPj,
                    "energy accumulation went backwards across an epoch "
                    "(", prev.total(), " pJ -> ", cur.total(), " pJ)");
    }

  private:
    /** Counter bases snapshot at epoch start (deltas reconcile). */
    struct UnitBase
    {
        std::uint64_t travInserts = 0;
        std::uint64_t travEvicts = 0;
        std::uint64_t pbFills = 0;
        std::uint64_t pbEvicts = 0;
    };

    NdpSystem &sys;
    CheckContext ctx;
    std::vector<UnitBase> base;
    std::uint64_t startStaged = 0;
    EnergyBreakdown prevEnergy;
};

} // namespace check
} // namespace abndp

#endif // ABNDP_CHECK_MACHINE_CHECKER_HH
