#include "sched/scheduler.hh"

#include <algorithm>

#include "common/logging.hh"
#include "sched/policy_registry.hh"

namespace abndp
{

Scheduler::Scheduler(const SystemConfig &cfg, const Topology &topo,
                     const CampMapping &camps, const FaultModel *faults,
                     obs::Tracer *tracer)
    : cfg(cfg), topo(topo), camps(camps), faults(faults), tracer(tracer),
      policyObj(makeConfiguredPolicy(cfg)),
      campAware(cfg.traveller.style != CacheStyle::None),
      exhaustiveScoring(cfg.sched.exhaustiveScoring),
      weightB(cfg.sched.hybridAlpha * topo.interCost()),
      forwardPenalty(cfg.sched.forwardPenaltyFrac),
      deadband(cfg.sched.costloadDeadband),
      nUnits(topo.numUnits()),
      nStacks(topo.numStacks()),
      dIntraEst(topo.intraCost() * topo.meanIntraHops()),
      penalty(!(forwardPenalty > 0.0) ? Penalty::None
              : nUnits <= fwdPenMaxUnits ? Penalty::Row
                                         : Penalty::OnTheFly),
      wTrue(nUnits, 0.0),
      wSnap(nUnits, 0.0),
      wDelta(static_cast<std::size_t>(nUnits) * nUnits, 0.0),
      deltaDirty(nUnits, 0),
      speed(nUnits, 1.0),
      loadSnap(nUnits, 0.0),
      loadView(static_cast<std::size_t>(nUnits) * nUnits, 0.0),
      stackOfUnit(nUnits, 0),
      stackBase(nStacks, 0.0),
      stackMin(nStacks, 0.0),
      unitBonus(nUnits, 0.0),
      unitScore(nUnits, 0.0)
{
    // Eq. 2 stack-pair costs: the diagonal is the intra-stack
    // estimate, off-diagonal entries are Dinter * XY-mesh hops. With
    // the crossbar NoC Dintra is constant (the paper's setting); for
    // the ring option the stack-level term uses the mean ring
    // distance as an estimate (placement within the stack is then a
    // second-order effect).
    const double d_inter = topo.interCost();
    stackPairCost.resize(static_cast<std::size_t>(nStacks) * nStacks);
    for (StackId cs = 0; cs < nStacks; ++cs) {
        for (StackId s = 0; s < nStacks; ++s) {
            double cost;
            if (cs == s) {
                cost = dIntraEst;
            } else {
                auto [x1, y1] = topo.stackCoord(s);
                auto [x2, y2] = topo.stackCoord(cs);
                std::uint32_t hops = (x1 > x2 ? x1 - x2 : x2 - x1)
                    + (y1 > y2 ? y1 - y2 : y2 - y1);
                cost = d_inter * hops;
            }
            stackPairCost[static_cast<std::size_t>(cs) * nStacks + s] =
                cost;
        }
    }
    for (UnitId u = 0; u < nUnits; ++u)
        stackOfUnit[u] = topo.stackOf(u);
    if (penalty == Penalty::Row) {
        fwdPen.resize(static_cast<std::size_t>(nUnits) * nUnits);
        for (UnitId c = 0; c < nUnits; ++c)
            for (UnitId u = 0; u < nUnits; ++u)
                fwdPen[static_cast<std::size_t>(c) * nUnits + u] =
                    forwardPenalty * topo.distanceCost(c, u);
    }

    // Nearest-candidate rows for every candidate-stack tuple. Digit g
    // is the candidate's stack among group g's stacks (first-seen
    // order); its place value is the product of the earlier groups'
    // stack counts. The minimum of doubles is exact, so each stored
    // row equals the per-candidate min it replaces.
    if (!campAware)
        return;
    const GroupId ngroups = topo.numGroups();
    std::vector<std::vector<StackId>> groupStacks(ngroups);
    for (GroupId g = 0; g < ngroups; ++g) {
        auto &gs = groupStacks[g];
        for (UnitId u : topo.unitsOfGroup(g))
            if (std::find(gs.begin(), gs.end(), topo.stackOf(u))
                == gs.end())
                gs.push_back(topo.stackOf(u));
    }
    std::vector<std::size_t> place(ngroups);
    std::size_t tuples = 1;
    for (GroupId g = 0; g < ngroups; ++g) {
        place[g] = tuples;
        tuples *= groupStacks[g].size();
        if (tuples * nStacks > stackMinMaxDoubles)
            return;
    }
    tupleWeight.resize(nUnits);
    for (UnitId u = 0; u < nUnits; ++u) {
        const GroupId g = topo.groupOf(u);
        const auto &gs = groupStacks[g];
        auto digit = static_cast<std::size_t>(
            std::find(gs.begin(), gs.end(), topo.stackOf(u)) - gs.begin());
        tupleWeight[u] = static_cast<std::uint32_t>(place[g] * digit);
    }
    stackMinRows.resize(tuples * nStacks);
    for (std::size_t t = 0; t < tuples; ++t) {
        double *out = stackMinRows.data() + t * nStacks;
        for (GroupId g = 0; g < ngroups; ++g) {
            const auto &gs = groupStacks[g];
            const double *row = stackPairCost.data()
                + static_cast<std::size_t>(gs[(t / place[g]) % gs.size()])
                    * nStacks;
            for (StackId s = 0; s < nStacks; ++s)
                out[s] = (g == 0 || row[s] < out[s]) ? row[s] : out[s];
        }
    }
}

double
Scheduler::estimateLoad(const Task &task) const
{
    if (task.hint.workload != 0)
        return static_cast<double>(task.hint.workload);
    // Section 3.1: estimate from the total memory access cost of the
    // primary-data addresses. One nominal DRAM access per hint address
    // plus a fixed task overhead; only relative magnitudes matter.
    constexpr double nominal_access = 51.0; // ~tRP + tRCD + tCAS, ns
    constexpr double task_overhead = 20.0;
    std::uint64_t lines =
        task.hintLines != 0 ? task.hintLines : task.hint.totalLines();
    return task_overhead + nominal_access * static_cast<double>(lines);
}

UnitId
Scheduler::choose(const Task &task, UnitId creator)
{
    ++nDecisions;
    return policyObj->choose(*this, task, creator);
}

double
Scheduler::accumulateCostMem(const Task &task, bool withCamps)
{
    std::fill(stackBase.begin(), stackBase.end(), 0.0);
    for (UnitId u : bonusDirty)
        unitBonus[u] = 0.0;
    bonusDirty.clear();

    // Gather the addresses to score: the explicit list plus a few
    // sample lines per range (ranges are contiguous allocations, so
    // sampling preserves their distance profile).
    sampleScratch.clear();
    for (Addr a : task.hint.data)
        sampleScratch.push_back(a);
    for (const auto &r : task.hint.ranges) {
        sampleScratch.push_back(r.start);
        if (r.lines() > 2)
            sampleScratch.push_back(r.start + r.bytes / 2);
        if (r.lines() > 1)
            sampleScratch.push_back(r.start + r.bytes - 1);
    }
    const auto &data = sampleScratch;
    if (data.empty())
        return 0.0;

    // Sample at most sampleCap addresses for huge hints (a hardware
    // scheduler would summarize long address lists the same way).
    std::size_t step = data.size() <= sampleCap
        ? 1
        : (data.size() + sampleCap - 1) / sampleCap;

    std::uint32_t sampled = 0;
    CandidateList cl;
    for (std::size_t i = 0; i < data.size(); i += step, ++sampled) {
        Addr a = data[i];
        if (withCamps) {
            camps.candidates(a, cl);
        } else {
            cl.loc[0] = camps.homeOf(a);
            cl.n = 1;
        }
        const double *row = nearestStackRow(cl);
        for (StackId s = 0; s < nStacks; ++s)
            stackBase[s] += row[s];

        // A unit equal to a candidate saves (Dintra - Dlocal) for this
        // address relative to the stack-level bound.
        for (std::uint32_t c = 0; c < cl.n; ++c) {
            UnitId cand = cl.loc[c];
            if (unitBonus[cand] == 0.0)
                bonusDirty.push_back(cand);
            unitBonus[cand] += dIntraEst; // Dlocal == 0
        }
    }

    abndp_assert(sampled > 0);
    return 1.0 / sampled;
}

const double *
Scheduler::nearestStackRow(const CandidateList &cl)
{
    const double *row0 = stackPairCost.data()
        + static_cast<std::size_t>(stackOfUnit[cl.loc[0]]) * nStacks;
    if (cl.n == 1)
        return row0;
    if (!stackMinRows.empty()) {
        std::size_t t = 0;
        for (std::uint32_t c = 0; c < cl.n; ++c)
            t += tupleWeight[cl.loc[c]];
        return stackMinRows.data() + t * nStacks;
    }
    // Machines too large for the table: min across the candidates'
    // contiguous rows.
    for (StackId s = 0; s < nStacks; ++s)
        stackMin[s] = row0[s];
    for (std::uint32_t c = 1; c < cl.n; ++c) {
        const double *row = stackPairCost.data()
            + static_cast<std::size_t>(stackOfUnit[cl.loc[c]]) * nStacks;
        for (StackId s = 0; s < nStacks; ++s)
            stackMin[s] = row[s] < stackMin[s] ? row[s] : stackMin[s];
    }
    return stackMin.data();
}

double
Scheduler::loadTerm(UnitId u, double w) const
{
    double r = w / speed[u] / wAvg - 1.0;
    // Small deviations are measurement noise on shallow queues, not
    // imbalance worth moving tasks for.
    r = r > deadband ? r - deadband : (r < -deadband ? r + deadband : 0.0);
    return weightB * r;
}

template <Scheduler::Penalty Pen, bool Load>
UnitId
Scheduler::scorePass(double inv, UnitId creator)
{
    const double *sb = stackBase.data();
    const StackId *sou = stackOfUnit.data();
    const double *ub = unitBonus.data();
    const double *pen = nullptr;
    if constexpr (Pen == Penalty::Row)
        pen = fwdPen.data() + static_cast<std::size_t>(creator) * nUnits;
    // costload from the creator's view (Eq. 3): its forward-patched
    // row, or the snapshot row while it has not forwarded since the
    // last exchange. Its own entry always uses its true local queue.
    const double *load = nullptr;
    double creatorLoad = 0.0;
    if constexpr (Load) {
        load = deltaDirty[creator]
            ? loadView.data() + static_cast<std::size_t>(creator) * nUnits
            : loadSnap.data();
        creatorLoad = loadTerm(creator, wTrue[creator]);
    }
    auto scoreOf = [&](UnitId u) {
        double s = (sb[sou[u]] - ub[u]) * inv;
        if constexpr (Pen == Penalty::Row)
            s += pen[u];
        else if constexpr (Pen == Penalty::OnTheFly)
            s += forwardPenalty * topo.distanceCost(creator, u);
        if constexpr (Load)
            s += u == creator ? creatorLoad : load[u];
        return s;
    };

    // Branchless first-min-wins scan (strict < keeps the
    // lowest-numbered unit on ties).
    double *score = unitScore.data();
    UnitId best = 0;
    double bestV = score[0] = scoreOf(0);
    for (UnitId u = 1; u < nUnits; ++u) {
        const double s = score[u] = scoreOf(u);
        const bool lt = s < bestV;
        best = lt ? u : best;
        bestV = lt ? s : bestV;
    }
    return best;
}

UnitId
Scheduler::scoreUnits(const Task &task, UnitId creator, bool withCamps,
                      bool withLoad)
{
    const double inv = accumulateCostMem(task, withCamps);
    // Moving the task ships its descriptor to the target: a real (if
    // small) cost that keeps tiny tasks from migrating for negligible
    // gains. costload joins once an exchange has seen queued work.
    const Penalty pen = withLoad ? penalty : Penalty::None;
    const bool load = withLoad && wAvg > 0.0;
    UnitId best;
    switch (pen) {
      case Penalty::Row:
        best = load ? scorePass<Penalty::Row, true>(inv, creator)
                    : scorePass<Penalty::Row, false>(inv, creator);
        break;
      case Penalty::OnTheFly:
        best = load ? scorePass<Penalty::OnTheFly, true>(inv, creator)
                    : scorePass<Penalty::OnTheFly, false>(inv, creator);
        break;
      default:
        best = load ? scorePass<Penalty::None, true>(inv, creator)
                    : scorePass<Penalty::None, false>(inv, creator);
        break;
    }

    // Degraded mode: a down unit must never win a placement decision.
    // The mask is consulted only while a failure is active, so the
    // no-fault argmin (and with it every golden run) is untouched.
    if (faults && faults->anyUnitDown()) {
        best = invalidUnit;
        for (UnitId u = 0; u < nUnits; ++u) {
            if (!faults->isLive(u))
                continue;
            if (best == invalidUnit || unitScore[u] < unitScore[best])
                best = u;
        }
    }
    return best;
}

UnitId
Scheduler::argminPruned(const Task &task, UnitId creator)
{
    // Pruned mode: a hardware scheduler scores only the plausible
    // targets — the creating unit, the main home, the camp/home
    // candidates of a few hint addresses, and the most idle units
    // from the last exchange.
    auto &set = prunedScratch;
    set.clear();
    set.push_back(creator);
    if (task.mainHome < nUnits)
        set.push_back(task.mainHome);
    const auto &data = task.hint.data; // pruned set: list part only
    std::size_t step = data.size() <= 16
        ? 1
        : (data.size() + 15) / 16;
    CandidateList cl;
    for (std::size_t i = 0; i < data.size(); i += step) {
        camps.candidates(data[i], cl);
        for (std::uint32_t c = 0; c < cl.n; ++c)
            set.push_back(cl.loc[c]);
    }
    for (UnitId u : idleHint)
        set.push_back(u);
    // set.front() is the creator: the only caller guaranteed live even
    // in degraded mode (dead units make no placement decisions).
    const bool masked = faults && faults->anyUnitDown();
    UnitId best = set.front();
    for (UnitId u : set) {
        if (masked && !faults->isLive(u))
            continue;
        if (unitScore[u] < unitScore[best])
            best = u;
    }
    return best;
}

UnitId
Scheduler::resolveTies(const Task &task, UnitId creator, UnitId best) const
{
    // Ties (e.g., a cold camp scoring like the home) must not move the
    // task: prefer the creating unit, then the main element's home —
    // but never a down unit while a failure is active.
    constexpr double eps = 1e-9;
    const bool masked = faults && faults->anyUnitDown();
    if ((!masked || faults->isLive(creator))
        && unitScore[creator] <= unitScore[best] + eps)
        return creator;
    if (task.mainHome < nUnits
        && (!masked || faults->isLive(task.mainHome))
        && unitScore[task.mainHome] <= unitScore[best] + eps)
        return task.mainHome;
    return best;
}

void
Scheduler::onEnqueued(UnitId u, double load)
{
    // Only the true W changes: task creation (staging children for the
    // next timestamp) happens at a similar rate on every unit, so units
    // reconcile it at the next exchange. Local view adjustments are
    // reserved for this unit's own placement decisions (onForwarded),
    // which would otherwise dogpile within an exchange interval.
    wTrue[u] += load;
}

void
Scheduler::onDequeued(UnitId u, double load)
{
    wTrue[u] -= load;
    if (wTrue[u] < 0.0)
        wTrue[u] = 0.0;
}

void
Scheduler::onStolen(UnitId victim, UnitId thief, double load)
{
    wTrue[victim] -= load;
    if (wTrue[victim] < 0.0)
        wTrue[victim] = 0.0;
    wTrue[thief] += load;
}

void
Scheduler::onForwarded(UnitId from, UnitId to, double load)
{
    wTrue[from] -= load;
    if (wTrue[from] < 0.0)
        wTrue[from] = 0.0;
    wTrue[to] += load;
    // The forwarding unit immediately reflects its own decision in its
    // local view; other units learn at the next exchange. Only the two
    // entries this forward moved change in its costload row.
    const std::size_t rowBase = static_cast<std::size_t>(from) * nUnits;
    double *delta = wDelta.data() + rowBase;
    double *view = loadView.data() + rowBase;
    delta[from] -= load;
    delta[to] += load;
    if (!deltaDirty[from]) {
        deltaDirty[from] = 1;
        dirtyViewers.push_back(from);
        std::copy(loadSnap.begin(), loadSnap.end(), view);
    }
    if (wAvg > 0.0) {
        view[from] = loadTerm(from, wSnap[from] + delta[from]);
        view[to] = loadTerm(to, wSnap[to] + delta[to]);
    }
}

void
Scheduler::exchangeSnapshot(Tick now)
{
    ++nExchanges;
    if (tracer && tracer->enabled())
        tracer->record(obs::TraceEvent::CampExchange,
                       obs::Tracer::systemUnit, 1, now, 0,
                       nExchanges.value());
    wSnap = wTrue;
    if (faults && faults->anyInjector())
        for (UnitId u = 0; u < nUnits; ++u)
            speed[u] = faults->speedFactor(u, now);
    // The average uses the same effective (speed-scaled) W values the
    // per-unit costload terms see.
    wSnapSum = 0.0;
    for (UnitId u = 0; u < nUnits; ++u)
        wSnapSum += wSnap[u] / speed[u];
    wAvg = wSnapSum / nUnits;
    // Every viewer scores costload from this row until it forwards.
    if (wAvg > 0.0)
        for (UnitId u = 0; u < nUnits; ++u)
            loadSnap[u] = loadTerm(u, wSnap[u]);
    // Refresh the most-idle hint used by the pruned scoring mode. The
    // hint depth is capped by the unit count: machines smaller than
    // the nominal 8-entry hint must not sort past the end.
    if (!exhaustiveScoring) {
        // Down units are excluded from the idle hint: an "idle" dead
        // unit would otherwise look like the perfect steal/forward
        // target. With no failure active the candidate list is the
        // full 0..nUnits-1 sequence as before.
        const bool masked = faults && faults->anyUnitDown();
        idleHint.clear();
        for (UnitId u = 0; u < nUnits; ++u)
            if (!masked || faults->isLive(u))
                idleHint.push_back(u);
        const std::size_t hintDepth =
            std::min<std::size_t>(8, idleHint.size());
        std::partial_sort(idleHint.begin(),
                          idleHint.begin() + hintDepth,
                          idleHint.end(), [this](UnitId a, UnitId b) {
                              return wSnap[a] < wSnap[b];
                          });
        idleHint.resize(hintDepth);
    }
    // Clear only the rows of viewers that actually forwarded since the
    // last exchange: O(active viewers * units) instead of O(units^2).
    // Clean rows are already all-zero by the deltaDirty invariant.
    for (UnitId v : dirtyViewers) {
        auto *row = wDelta.data() + static_cast<std::size_t>(v) * nUnits;
        std::fill(row, row + nUnits, 0.0);
        deltaDirty[v] = 0;
    }
    dirtyViewers.clear();
}

} // namespace abndp
