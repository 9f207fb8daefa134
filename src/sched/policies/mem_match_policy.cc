#include "sched/policies/mem_match_policy.hh"

#include "sched/scheduler.hh"

namespace abndp
{

UnitId
MemMatchPolicy::choose(Scheduler &sched, const Task &task, UnitId creator)
{
    // Pure data-affinity scoring: camp copies are not consulted even
    // when a cache layer is present (design C matches the paper's
    // lowest-distance baseline, which is cache-oblivious). Under an
    // active unit failure scoreUnits/resolveTies pick live units
    // only, so the lowest-distance choice degrades to the nearest
    // live unit.
    UnitId best = sched.scoreUnits(task, creator, /*withCamps=*/false,
                                   /*withLoad=*/false);
    return sched.resolveTies(task, creator, best);
}

} // namespace abndp
