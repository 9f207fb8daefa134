#include "check/machine_checker.hh"

#include "core/metrics.hh"
#include "core/ndp_system.hh"

namespace abndp
{
namespace check
{

MachineChecker::MachineChecker(NdpSystem &sys)
    : sys(sys), base(sys.numUnits())
{
}

void
MachineChecker::onEpochStart(std::uint64_t epoch,
                             std::uint64_t stagedTasks)
{
    startStaged = stagedTasks;
    MemSystem &mem = sys.memSystem();
    for (UnitId u = 0; u < sys.numUnits(); ++u) {
        NdpUnit &unit = sys.unit(u);
        UnitBase &b = base[u];
        b.pbFills = unit.pb->fills();
        b.pbEvicts = unit.pb->evictions();
        ctx.require(unit.pb->size() == 0, "prefetch buffer of unit ", u,
                    " holds ", unit.pb->size(), " blocks entering epoch ",
                    epoch, " (missed timestamp invalidation)");
        if (mem.cachingEnabled()) {
            const TravellerCache &tc = mem.traveller(u);
            b.travInserts = tc.insertions();
            b.travEvicts = tc.evictions();
            ctx.require(tc.occupancy() == 0, "traveller cache of unit ",
                        u, " holds ", tc.occupancy(),
                        " blocks entering epoch ", epoch,
                        " (missed bulk invalidation)");
        }
        for (const CoreState &core : unit.cores)
            ctx.require(core.l1d->occupancy() == 0, "L1-D of unit ", u,
                        " holds ", core.l1d->occupancy(),
                        " blocks entering epoch ", epoch,
                        " (missed timestamp invalidation)");
    }
    ctx.raiseIfAny("epoch start");
}

void
MachineChecker::onEpochEnd(std::uint64_t epoch,
                           std::uint64_t executedDirect,
                           std::uint64_t executedRecovered,
                           std::uint64_t stagedTasks)
{
    MemSystem &mem = sys.memSystem();

    checkTaskConservation(ctx, epoch, startStaged,
                          executedDirect + executedRecovered);
    checkTaskConservationUnderFailure(ctx, epoch, startStaged,
                                      executedDirect, executedRecovered);

    std::uint64_t staged_sum = 0;
    std::uint64_t trav_hits = 0, trav_misses = 0, trav_inserts = 0;
    for (UnitId u = 0; u < sys.numUnits(); ++u) {
        NdpUnit &unit = sys.unit(u);
        const UnitBase &b = base[u];

        // Epoch drain: with zero live tasks there can be no queued or
        // running work anywhere (a task sitting in a queue, riding a
        // steal, or running on a core is live by definition).
        ctx.require(unit.pending.empty() && unit.ready.empty(),
                    "unit ", u, " still queues ", unit.pending.size(),
                    " pending + ", unit.ready.size(),
                    " ready tasks after epoch ", epoch, " drained");
        ctx.require(unit.busyCores() == 0, "unit ", u, " still has ",
                    unit.busyCores(), " busy cores after epoch ", epoch,
                    " drained");
        ctx.require(!unit.schedBusy, "unit ", u, " scheduler busy with "
                    "an empty pending queue after epoch ", epoch,
                    " drained");
        ctx.require(unit.prefetchedCount == 0, "unit ", u,
                    " prefetch window covers ", unit.prefetchedCount,
                    " tasks of an empty ready queue after epoch ",
                    epoch, " drained");
        staged_sum += unit.stagedPending.size() + unit.stagedReady.size();

        // Cache occupancy reconciles with the counter deltas since the
        // last bulk invalidation (snapshotted at epoch start).
        checkOccupancy(ctx, "prefetch buffer", u, unit.pb->size(),
                       unit.pb->fills() - b.pbFills,
                       unit.pb->evictions() - b.pbEvicts,
                       unit.pb->capacityBlocks());
        if (mem.cachingEnabled()) {
            const TravellerCache &tc = mem.traveller(u);
            checkOccupancy(ctx, "traveller cache", u, tc.occupancy(),
                           tc.insertions() - b.travInserts,
                           tc.evictions() - b.travEvicts,
                           tc.capacityBlocks());
            trav_hits += tc.hits();
            trav_misses += tc.misses();
            trav_inserts += tc.insertions();
        }
        for (const CoreState &core : unit.cores) {
            ctx.require(core.l1d->occupancy()
                            <= core.l1d->numSets()
                                * core.l1d->associativity(),
                        "L1-D of unit ", u, " over-full: ",
                        core.l1d->occupancy(), " blocks in ",
                        core.l1d->numSets() * core.l1d->associativity(),
                        " ways");
            ctx.require(core.tlb->occupancy()
                            <= core.tlb->numSets()
                                * core.tlb->associativity(),
                        "TLB of unit ", u, " over-full: ",
                        core.tlb->occupancy(), " entries in ",
                        core.tlb->numSets() * core.tlb->associativity(),
                        " ways");
        }
    }

    ctx.require(staged_sum == stagedTasks, "staged-task accounting: "
                "the staging queues hold ", staged_sum,
                " tasks but the epoch engine counted ", stagedTasks);

    if (mem.cachingEnabled()) {
        checkHitMissTotals(ctx, "traveller cache", trav_hits,
                           trav_misses, mem.campHits(),
                           mem.campMisses());
        // The per-unit insertion counters skip the raced re-insert of
        // an already-present block; the machine-level counter does not.
        ctx.require(trav_inserts <= mem.cacheInsertions(),
                    "traveller cache: per-unit insertions sum to ",
                    trav_inserts, " which exceeds the machine-level "
                    "count of ", mem.cacheInsertions());
    }

    checkHopAccounting(ctx, mem.network().totalInterHops(),
                       mem.network().expectedInterHops());

    const EnergyBreakdown &bd = sys.energyAccount().breakdown();
    checkEnergyAdditivity(ctx, bd);
    checkEnergyMonotone(ctx, prevEnergy, bd);
    ctx.require(bd.staticPj == 0.0, "static energy ", bd.staticPj,
                " pJ accrued mid-run (finalizeStatic must only run at "
                "the end of the run)");
    prevEnergy = bd;

    ctx.raiseIfAny("epoch end");
}

void
MachineChecker::onRunEnd(const RunMetrics &m)
{
    MemSystem &mem = sys.memSystem();

    std::uint64_t tasks_run = 0;
    for (UnitId u = 0; u < sys.numUnits(); ++u)
        tasks_run += sys.unit(u).tasksRun();
    ctx.require(tasks_run == m.tasks, "task accounting: per-core "
                "tasksRun counters sum to ", tasks_run,
                " but the run executed ", m.tasks, " tasks");

    checkHopAccounting(ctx, m.interHops,
                       mem.network().expectedInterHops());

    checkServingConservation(ctx, m.servingInjected, m.servingRejected,
                             m.servingCompletedDirect,
                             m.servingCompletedRecovered);

    checkMigrationConservation(ctx, m.blocksMigrated,
                               m.migrationInvalidations,
                               mem.cachingEnabled());

    // The reported breakdown is additive and identical to the live
    // account (RunMetrics copies, it must not recompute).
    checkEnergyAdditivity(ctx, m.energy);
    const EnergyBreakdown &bd = sys.energyAccount().breakdown();
    ctx.require(m.energy.coreSramPj == bd.coreSramPj
                    && m.energy.dramMemPj == bd.dramMemPj
                    && m.energy.dramCachePj == bd.dramCachePj
                    && m.energy.netPj == bd.netPj
                    && m.energy.staticPj == bd.staticPj,
                "reported energy breakdown (", m.energy.total(),
                " pJ) diverges from the live account (", bd.total(),
                " pJ)");

    // Bandwidth conservation: no meter bucket anywhere in the machine
    // may have admitted more than capacity x window.
    mem.network().auditBandwidth(ctx);
    for (UnitId u = 0; u < sys.numUnits(); ++u) {
        mem.dram(u).auditBandwidth(ctx);
        // Backend-specific timing invariants (the DDR backend checks
        // its tFAW ACT-window bound; the meter backend has none).
        mem.dram(u).auditTiming(ctx);
    }

    ctx.raiseIfAny("run end");
}

void
MachineChecker::onBlockMigrated(Addr block)
{
    MemSystem &mem = sys.memSystem();
    if (!mem.cachingEnabled())
        return;
    std::uint32_t holders = 0;
    for (UnitId u = 0; u < sys.numUnits(); ++u)
        holders += mem.traveller(u).contains(block) ? 1 : 0;
    checkNoStaleCampCopy(ctx, block, holders);
    ctx.raiseIfAny("block migration");
}

} // namespace check
} // namespace abndp
