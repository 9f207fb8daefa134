#include "sched/policies/hybrid_policy.hh"

#include "sched/scheduler.hh"

namespace abndp
{

UnitId
HybridPolicy::choose(Scheduler &sched, const Task &task, UnitId creator)
{
    // Eq. 1: costmem (camp-aware when a cache layer holds copies),
    // plus the descriptor shipping cost, plus B * costload from the
    // creator's (possibly stale) view of the system. Both argmin
    // variants and the tie resolution consult the liveness mask while
    // a unit failure is active, so a down unit never wins Eq. 1.
    UnitId best = sched.scoreUnits(task, creator, sched.campAwareScoring(),
                                   /*withLoad=*/true);
    if (!sched.exhaustive())
        best = sched.argminPruned(task, creator);
    return sched.resolveTies(task, creator, best);
}

} // namespace abndp
