#include "core/ndp_system.hh"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "check/machine_checker.hh"
#include "common/logging.hh"
#include "sched/lb/lb_engine.hh"
#include "serve/arrival.hh"
#include "serve/zipf.hh"
#include "workloads/query_service.hh"

namespace abndp
{

/**
 * Serving stream generator state: the seeded arrival process, the
 * Zipfian key sampler, the tenant mix, and the QueryService face of
 * the workload. Out of line so the header needs no serve/ generator
 * includes; exists only for the duration of a serving run.
 */
struct NdpSystem::ServeState
{
    serve::ArrivalProcess arrivals;
    serve::ZipfianSampler zipf;
    QueryService *svc;
    /** Cumulative normalized tenant-weight distribution. */
    std::vector<double> tenantCdf;
    /** Dense sequence numbers handed to admitted requests. */
    std::uint64_t admitted = 0;

    ServeState(const ServingConfig &sc, std::uint64_t systemSeed,
               std::uint64_t keys, QueryService *svc_)
        : arrivals(sc, systemSeed), zipf(keys, sc.zipfS), svc(svc_)
    {
        std::vector<double> w = sc.tenantWeights;
        if (w.empty())
            w.assign(sc.tenants, 1.0);
        double total = 0.0;
        for (double x : w)
            total += x;
        double cum = 0.0;
        tenantCdf.reserve(w.size());
        for (double x : w) {
            cum += x;
            tenantCdf.push_back(cum / total);
        }
    }

    /** Map one uniform draw in [0, 1) to a tenant id. */
    std::uint8_t
    tenantFor(double u) const
    {
        std::size_t t = static_cast<std::size_t>(
            std::upper_bound(tenantCdf.begin(), tenantCdf.end(), u)
            - tenantCdf.begin());
        return static_cast<std::uint8_t>(
            std::min(t, tenantCdf.size() - 1));
    }
};

NdpSystem::~NdpSystem() = default;

NdpSystem::NdpSystem(const SystemConfig &cfg_)
    : cfg(cfg_),
      topo((cfg.validate(), cfg)),
      faults(cfg),
      energy(cfg),
      alloc(cfg),
      tracer(!cfg.traceOut.empty(),
             static_cast<std::size_t>(cfg.traceBufferEvents)),
      mem(cfg, topo, alloc.map(), energy, &faults, &tracer),
      sched(cfg, topo, mem.campMapping(), &faults, &tracer),
      path(cfg, mem, energy, faults),
      units(cfg.numUnits()),
      windowPolicy(sched.usesSchedulingWindow()),
      schedDecisionTicks(static_cast<Tick>(cfg_.sched.decisionNs
                                           * ticksPerNs))
{
    eq.setWatchdog(cfg.fault.watchdog.maxEpochTicks,
                   cfg.fault.watchdog.maxEpochEvents);

    for (UnitId u = 0; u < cfg.numUnits(); ++u)
        units[u].init(cfg, u);

    failuresOn = faults.unitFailuresEnabled();
    acksOutstanding.assign(units.size(), 0);

    if (cfg.serving.enabled()) {
        // Construct the recorders here (not in serveRun) so the stats
        // lambdas built below never see an unsized tenant vector.
        auto slo = static_cast<Tick>(cfg.serving.sloNs * ticksPerNs);
        servingLat = serve::LatencyRecorder(slo);
        servingTenantLat.assign(cfg.serving.tenants,
                                serve::LatencyRecorder(slo));
    }

    lbOn = cfg.lb.enabled;
    if (lbOn) {
        lbEngine = std::make_unique<LbEngine>(cfg.lb, topo);
        mem.setHotnessTracker(&lbEngine->hotness());
        lbQlen.assign(units.size(), 0);
    }

    if (cfg.checkInvariants) {
        checker = std::make_unique<check::MachineChecker>(*this);
        mem.network().setCheckContext(&checker->context());
    }

    buildStats();
}

void
NdpSystem::buildStats()
{
    obs::StatNode &root = statsReg.root();

    obs::StatNode &sys = root.child("system");
    sys.addCounter("epochs", &epochsDone);
    sys.addCounter("tasks", &totalTasks);
    sys.addCounter("forwardedTasks", &forwardedTasks);
    sys.addCounter("stolenTasks", &stolenTasks);
    sys.addCounter("stealAttempts", &stealAttempts);
    sys.addValue("finalTick",
                 [this]() {
                     return static_cast<double>(lastCompletionTick);
                 },
                 obs::StatKind::Gauge, true);
    sys.addValue("simEvents",
                 [this]() { return static_cast<double>(eq.executed()); },
                 obs::StatKind::Counter, true);
    sys.addFormula("coreUtilization", [this]() {
        // Mean busy fraction over all cores up to the last completion.
        if (lastCompletionTick == 0)
            return 0.0;
        double busy = 0.0;
        for (const auto &unit : units)
            for (const auto &core : unit.cores)
                busy += static_cast<double>(core.activeTicks);
        return busy
            / (static_cast<double>(lastCompletionTick)
               * static_cast<double>(cfg.numCores()));
    });
    sys.addFormula("loadImbalance", [this]() {
        // max / mean of per-unit executed-task counts (1.0 = balanced).
        double sum = 0.0, mx = 0.0;
        for (const auto &unit : units) {
            double n = 0.0;
            for (const auto &core : unit.cores)
                n += static_cast<double>(core.tasksRun);
            sum += n;
            mx = std::max(mx, n);
        }
        double mean = sum / static_cast<double>(units.size());
        return mean > 0.0 ? mx / mean : 0.0;
    });
    std::vector<std::string> unitNames;
    unitNames.reserve(units.size());
    for (UnitId u = 0; u < units.size(); ++u)
        unitNames.push_back(std::to_string(u));
    sys.addVector("unitTasksRun", unitNames,
                  [this](std::size_t u) {
                      double n = 0.0;
                      for (const auto &core : units[u].cores)
                          n += static_cast<double>(core.tasksRun);
                      return n;
                  },
                  obs::StatKind::Counter, true);

    // Recovery stats exist only when a unit failure is configured, so
    // failure-free stat dumps (and the golden suite) are unchanged.
    if (cfg.fault.unitFailure.enabled()) {
        obs::StatNode &rec = root.child("recovery");
        rec.addValue("unitsDown",
                     [this]() {
                         return static_cast<double>(faults.downCount());
                     },
                     obs::StatKind::Gauge, true);
        rec.addCounter("tasksRecovered", &tasksRecovered);
        rec.addCounter("tasksRedispatched", &tasksRedispatched);
        rec.addCounter("recoveryTrafficBytes", &recoveryTrafficBytes);
    }

    // Serving stats exist only when a request stream is configured, so
    // batch stat dumps (and the batch golden suite) are unchanged.
    // Percentiles select at dump time from the full latency log —
    // O(n), observational only.
    if (cfg.serving.enabled()) {
        obs::StatNode &sv = root.child("serving");
        sv.addCounter("injected", &servingInjected);
        sv.addCounter("rejected", &servingRejected);
        sv.addCounter("completedDirect", &servingCompletedDirect);
        sv.addCounter("completedRecovered", &servingCompletedRecovered);
        sv.addValue("sloMisses",
                    [this]() {
                        return static_cast<double>(
                            servingLat.sloMisses());
                    },
                    obs::StatKind::Counter, true);
        sv.addCounter("windows", &servingWindows);
        sv.addFormula("meanNs", [this]() {
            return servingLat.meanTicks() / ticksPerNs;
        });
        sv.addFormula("p50Ns",
                      [this]() { return servingPercentileNs(0.50); });
        sv.addFormula("p95Ns",
                      [this]() { return servingPercentileNs(0.95); });
        sv.addFormula("p99Ns",
                      [this]() { return servingPercentileNs(0.99); });
        sv.addFormula("p999Ns",
                      [this]() { return servingPercentileNs(0.999); });
        sv.addFormula("goodputQps",
                      [this]() { return servingGoodputQps(); });
        sv.addFormula("sloMissRate",
                      [this]() { return servingSloMissRate(); });
        std::vector<std::string> tenantNames;
        tenantNames.reserve(cfg.serving.tenants);
        for (std::uint32_t t = 0; t < cfg.serving.tenants; ++t)
            tenantNames.push_back(std::to_string(t));
        sv.addVector("tenantCompleted", tenantNames,
                     [this](std::size_t t) {
                         return static_cast<double>(
                             servingTenantLat[t].samples());
                     },
                     obs::StatKind::Counter, true);
        sv.addVector("tenantP99Ns", tenantNames,
                     [this](std::size_t t) {
                         return static_cast<double>(
                                    servingTenantLat[t].percentile(0.99))
                             / ticksPerNs;
                     },
                     obs::StatKind::Gauge, false);
    }

    // Lb stats exist only when the hierarchical balancer is
    // configured, so classic stat dumps (and every pre-existing
    // golden family) are unchanged.
    if (cfg.lb.enabled) {
        obs::StatNode &lb = root.child("lb");
        lb.addCounter("tasksShedIntra", &tasksShedIntra);
        lb.addCounter("tasksShedInter", &tasksShedInter);
        mem.regLbStats(lb);
    }

    sched.regStats(root.child("sched"));
    mem.network().regStats(root.child("net"));
    mem.regStats(root.child("mem"));

    obs::StatNode &en = root.child("energy");
    const EnergyAccount &ea = energy;
    en.addValue("coreSramPj",
                [&ea]() { return ea.breakdown().coreSramPj; },
                obs::StatKind::Gauge, false);
    en.addValue("dramMemPj",
                [&ea]() { return ea.breakdown().dramMemPj; },
                obs::StatKind::Gauge, false);
    en.addValue("dramCachePj",
                [&ea]() { return ea.breakdown().dramCachePj; },
                obs::StatKind::Gauge, false);
    en.addValue("netPj",
                [&ea]() { return ea.breakdown().netPj; },
                obs::StatKind::Gauge, false);
    en.addValue("staticPj",
                [&ea]() { return ea.breakdown().staticPj; },
                obs::StatKind::Gauge, false);
    en.addValue("totalPj",
                [&ea]() { return ea.breakdown().total(); },
                obs::StatKind::Gauge, false);

    for (UnitId u = 0; u < units.size(); ++u) {
        obs::StatNode &un =
            root.child("unit" + std::to_string(u));
        units[u].regStats(un);
        mem.dram(u).regStats(un.child("dram"));
        if (mem.cachingEnabled())
            mem.traveller(u).regStats(un.child("traveller"));
    }
}

void
NdpSystem::enqueueTask(Task &&task)
{
    abndp_assert(workload != nullptr, "enqueue outside a run");
    // The serving driver injects every task itself (emitInitialTasks
    // is never called), so any enqueue here is a child enqueue from
    // executeTask — and query tasks must be independent: there is no
    // next timestamp for a child to run in.
    if (servingMode)
        panic("serving mode forbids child enqueues: workload ",
              workload->name(), " enqueued a task with func ",
              task.func, " from inside a query execution");
    if (creatorCtx == invalidUnit) {
        abndp_assert(task.timestamp == curEpoch,
                     "initial tasks must carry the current timestamp");
    } else {
        abndp_assert(task.timestamp == curEpoch + 1,
                     "child tasks must carry timestamp + 1");
    }

    task.mainHome = mainHomeOf(task);
    task.finalizeBlocks(workload->taskArena());
    if (checker)
        checker->onTaskEnqueued(task);
    task.loadEstimate = sched.estimateLoad(task);

    UnitId creator = creatorCtx != invalidUnit ? creatorCtx : task.mainHome;

    if (windowPolicy) {
        // Figure 4: generated tasks enter the creating unit's queue; the
        // scheduling window decides their final placement later, with
        // fresher workload information. Initial tasks have no creating
        // unit: the runtime injects them round-robin so no single unit's
        // scheduler serializes the whole initial batch.
        if (creatorCtx == invalidUnit)
            creator = static_cast<UnitId>(initialSpread++ % units.size());
        sched.onEnqueued(creator, task.loadEstimate);
        units[creator].stagedPending.push_back(pool.add(std::move(task)));
    } else {
        UnitId dst = sched.choose(task, creator);
        sched.onEnqueued(dst, task.loadEstimate);
        units[dst].stagedReady.push_back(pool.add(std::move(task)));
    }
    ++stagedCount;
}

UnitId
NdpSystem::mainHomeOf(const Task &task) const
{
    Addr main_addr = !task.hint.data.empty() ? task.hint.data[0]
        : (!task.writes.empty() ? task.writes[0] : invalidAddr);
    // Affinity follows the migration-aware mapping (identical to the
    // static map for every design without re-homing). A task with no
    // datum stays with its creator (unit 0 for creator-less tasks).
    if (main_addr != invalidAddr)
        return mem.campMapping().homeOf(main_addr);
    return creatorCtx != invalidUnit ? creatorCtx : 0;
}

std::uint32_t
NdpSystem::grabBatchSlot()
{
    if (batchPoolFree.empty()) {
        batchPool.emplace_back();
        return static_cast<std::uint32_t>(batchPool.size() - 1);
    }
    std::uint32_t idx = batchPoolFree.back();
    batchPoolFree.pop_back();
    return idx;
}

void
NdpSystem::pumpScheduler(UnitId u)
{
    auto &unit = units[u];
    if (failuresOn && !faults.isLive(u))
        return;
    if (unit.schedBusy || unit.pending.empty())
        return;
    unit.schedBusy = true;
    // A straggler unit's hardware scorer is clocked down with its cores.
    auto decision = static_cast<Tick>(
        schedDecisionTicks * faults.computeSlowdown(u, eq.now()));
    eq.scheduleIn(decision, [this, u] {
        auto &unit = units[u];
        unit.schedBusy = false;
        // The unit may have died while the decision was in flight; its
        // pending queue was drained by the recovery protocol.
        if (failuresOn && !faults.isLive(u))
            return;
        if (unit.pending.empty())
            return;
        const TaskRef ref = unit.pending.front();
        unit.pending.pop_front();
        Task &task = pool[ref];

        UnitId dst = sched.choose(task, u);
        if (dst == u) {
            unit.ready.push_back(ref);
            tryDispatch(u);
        } else {
            sched.onForwarded(u, dst, task.loadEstimate);
            ++forwardedTasks;
            if (tracer.enabled())
                tracer.record(obs::TraceEvent::TaskForward, u,
                              obs::Tracer::laneSched, eq.now(), 0, dst);
            ++task.forwardHops;
            // Ship the task descriptor to its execution unit. A receiver
            // that knows (from its true local queue) that it was a stale
            // choice may re-forward, up to a small hop budget; this
            // breaks the dogpiles a shared stale snapshot causes.
            bool reexamine = task.forwardHops < maxForwardHops;
            Tick t = eq.now();
            t += mem.network().transfer(u, dst, 32, t).latency;
            if (failuresOn) {
                // Failure-tolerant path: the delivery carries an ack
                // with a timeout; expiry redispatches the task to a
                // live unit (docs/ARCHITECTURE.md).
                auto tr = std::make_shared<TaskTransit>();
                tr->task = ref;
                tr->from = u;
                tr->dst = dst;
                tr->reexamine = reexamine;
                trackDelivery(tr, t);
            } else {
                auto deliver = [this, ref, dst, reexamine] {
                    if (reexamine) {
                        units[dst].pending.push_back(ref);
                        pumpScheduler(dst);
                    } else {
                        landReady(dst, ref);
                    }
                };
                // The event kernel stores captures inline with no heap
                // fallback; this forwarding closure (this + task handle
                // + UnitId + bool) is the largest one this file
                // schedules and must fit the fixed slot.
                static_assert(
                    EventQueue::callbackFits<decltype(deliver)>,
                    "NdpSystem forwarding capture no longer fits "
                    "the event kernel's inline slot; grow "
                    "EventQueue::callbackCapacity");
                eq.schedule(t, std::move(deliver));
            }
        }
        pumpScheduler(u);
    });
}

void
NdpSystem::issuePrefetches(UnitId u)
{
    auto &unit = units[u];
    std::uint32_t window = std::min<std::uint32_t>(
        cfg.sched.prefetchWindow,
        static_cast<std::uint32_t>(unit.ready.size()));
    Tick now = eq.now();
    while (unit.prefetchedCount < window) {
        Task &task = pool[unit.ready[unit.prefetchedCount]];
        if (!task.prefetched)
            path.prefetchTask(unit, task, now);
        ++unit.prefetchedCount;
    }
}

void
NdpSystem::tryDispatch(UnitId u)
{
    auto &unit = units[u];
    // A down unit dispatches nothing (fail-stop at task granularity:
    // tasks already issued to cores complete, new work is refused).
    if (failuresOn && !faults.isLive(u))
        return;
    for (std::uint32_t c = 0; c < unit.cores.size(); ++c) {
        auto &core = unit.cores[c];
        if (core.busy)
            continue;
        if (unit.ready.empty())
            break;

        issuePrefetches(u);
        const TaskRef ref = unit.ready.front();
        unit.ready.pop_front();
        if (unit.prefetchedCount > 0)
            --unit.prefetchedCount;
        Task &task = pool[ref];
        sched.onDequeued(u, task.loadEstimate);

        // Functional execution: real computation + child enqueues (the
        // pool's addresses are stable, so `task` survives them).
        creatorCtx = u;
        workload->executeTask(task, *this);
        creatorCtx = invalidUnit;

        Tick now = eq.now();
        Tick end = path.executeTask(unit, c, task, now);
        if (end == now)
            end = now + 1; // every task takes at least one tick
        core.busy = true;
        core.activeTicks += end - now;
        ++epochTaskCount;
        if (task.recovered)
            ++epochRecoveredCount;
        ++core.tasksRun;
        ++totalTasks;
        if (tracer.enabled())
            tracer.record(obs::TraceEvent::TaskRun, u,
                          static_cast<std::uint16_t>(c), now, end - now,
                          task.func);

        if (servingMode) {
            // Stash the request identity on the core so the completion
            // event below can record its latency without growing the
            // capture (the task dies with its slot, released here).
            core.servingArrival = task.servingArrival;
            core.servingTenant = task.tenant;
            core.servingRecovered = task.recovered;
        }
        pool.release(ref);

        eq.schedule(end, [this, u, c] {
            units[u].cores[c].busy = false;
            abndp_assert(activeRemaining > 0);
            --activeRemaining;
            lastCompletionTick = eq.now();
            if (servingMode)
                recordServedCompletion(u, c);
            tryDispatch(u);
        });
    }

    if (unit.ready.empty() && unit.pending.empty()
        && sched.stealingEnabled() && !unit.stealInFlight
        && activeRemaining > 0) {
        if (unit.anyIdleCore())
            attemptSteal(u);
    }
}

void
NdpSystem::attemptSteal(UnitId u)
{
    auto &unit = units[u];
    ++stealAttempts;

    // Probe a few random victims and steal from the one with the longest
    // queue (work stealing from busier units, Section 2.3).
    constexpr std::uint32_t probes = 4;
    UnitId victim = invalidUnit;
    std::size_t best_len = 0;
    for (std::uint32_t i = 0; i < probes; ++i) {
        auto v = static_cast<UnitId>(unit.rng.below(units.size()));
        if (v == u)
            continue;
        // Never steal from a down unit: its queues were drained by the
        // recovery protocol and it cannot answer the probe.
        if (failuresOn && !faults.isLive(v))
            continue;
        std::size_t len = units[v].ready.size();
        if (len > best_len) {
            best_len = len;
            victim = v;
        }
    }

    if (victim == invalidUnit) {
        // Nothing to steal right now: back off exponentially and retry
        // while the epoch still has work in flight.
        unit.stealBackoff = std::min<Tick>(
            std::max<Tick>(unit.stealBackoff * 2, 500 * ticksPerNs),
            16000 * ticksPerNs);
        unit.stealInFlight = true;
        eq.scheduleIn(unit.stealBackoff, [this, u] {
            units[u].stealInFlight = false;
            if (activeRemaining > 0)
                tryDispatch(u);
        });
        return;
    }

    unit.stealBackoff = 0;
    std::uint32_t batch = std::min<std::uint32_t>(
        cfg.sched.stealBatch,
        static_cast<std::uint32_t>((best_len + 1) / 2));
    abndp_assert(batch > 0);

    // The batch is built in place: directly in the tracked transit on
    // the failure-tolerant path, or in a recycled batch slot (keeping
    // its vector capacity) on the common path.
    std::shared_ptr<StealTransit> tr;
    std::uint32_t slotIdx = 0;
    if (failuresOn)
        tr = std::make_shared<StealTransit>();
    else
        slotIdx = grabBatchSlot();
    std::vector<TaskRef> &stolen = failuresOn ? tr->batch
                                              : batchPool[slotIdx];
    const Tick t = shipBatch(victim, u, batch, stolen);
    stolenTasks += stolen.size();

    unit.stealInFlight = true;
    if (failuresOn) {
        // Tracked delivery: the batch carries an ack with a timeout so
        // a thief that dies with the batch in flight cannot lose it.
        tr->thief = u;
        ++acksOutstanding[u];
        eq.schedule(t, [this, tr] {
            if (tr->abandoned)
                return;
            tr->delivered = true;
            --acksOutstanding[tr->thief];
            units[tr->thief].stealInFlight = false;
            // A dead thief's batch is re-placed at once, not handed to
            // its buddy (which never asked for work).
            if (faults.isLive(tr->thief))
                landBatch(tr->thief, tr->batch);
            else
                reinjectStealBatch(tr, false);
        });
        eq.scheduleIn(faults.ackTimeoutTicks(), [this, tr] {
            if (tr->delivered || tr->abandoned)
                return;
            tr->abandoned = true;
            --acksOutstanding[tr->thief];
            units[tr->thief].stealInFlight = false;
            reinjectStealBatch(tr, true);
        });
        return;
    }
    eq.schedule(t, [this, u, slotIdx] {
        units[u].stealInFlight = false;
        // Freed first: landBatch empties the slot before it dispatches,
        // and a steal that dispatch starts may take the slot again.
        batchPoolFree.push_back(slotIdx);
        landBatch(u, batchPool[slotIdx]);
    });
}

void
NdpSystem::landReady(UnitId dst, TaskRef task)
{
    const UnitId to = faults.rehomeOf(dst);
    if (to != dst)
        sched.onStolen(dst, to, pool[task].loadEstimate);
    units[to].ready.push_back(task);
    tryDispatch(to);
}

void
NdpSystem::landBatch(UnitId dst, std::vector<TaskRef> &batch)
{
    const UnitId to = faults.rehomeOf(dst);
    auto &ready = units[to].ready;
    for (TaskRef task : batch) {
        if (to != dst)
            sched.onStolen(dst, to, pool[task].loadEstimate);
        ready.push_back(task);
    }
    batch.clear();
    tryDispatch(to);
}

Tick
NdpSystem::shipBatch(UnitId victim, UnitId thief, std::uint32_t count,
                     std::vector<TaskRef> &out)
{
    auto &vic = units[victim];
    double load = 0.0;
    for (std::uint32_t i = 0; i < count && !vic.ready.empty(); ++i) {
        const TaskRef ref = vic.ready.back();
        vic.ready.pop_back();
        Task &t = pool[ref];
        t.prefetched = false;
        load += t.loadEstimate;
        out.push_back(ref);
    }
    vic.prefetchedCount = std::min<std::uint32_t>(
        vic.prefetchedCount, static_cast<std::uint32_t>(vic.ready.size()));
    sched.onStolen(victim, thief, load);
    if (tracer.enabled())
        tracer.record(obs::TraceEvent::TaskSteal, thief,
                      obs::Tracer::laneSched, eq.now(), 0,
                      (static_cast<std::uint64_t>(victim) << 32)
                          | out.size());

    // Round trip: request packet out, task descriptors back.
    Tick t = eq.now();
    t += mem.network().transfer(thief, victim, PacketSizes::request,
                                t).latency;
    auto desc_bytes = static_cast<std::uint32_t>(16 + 32 * out.size());
    t += mem.network().transfer(victim, thief, desc_bytes, t).latency;
    return t;
}

void
NdpSystem::armFailureTransitions()
{
    Tick now = eq.now();
    Tick fail = faults.failAtTick();
    Tick recover = faults.recoverAtTick();
    if (!faults.anyUnitDown() && (recover == 0 || now < recover)) {
        if (now >= fail) {
            applyUnitFailures();
        } else {
            eq.schedule(fail, [this] {
                if (!faults.anyUnitDown())
                    applyUnitFailures();
            });
        }
    }
    if (recover != 0) {
        if (faults.anyUnitDown() && now >= recover) {
            applyUnitRecovery();
        } else if (now < recover) {
            eq.schedule(recover, [this] {
                if (faults.anyUnitDown())
                    applyUnitRecovery();
            });
        }
    }
}

void
NdpSystem::applyUnitFailures()
{
    everFailed = true;
    for (UnitId dead : faults.failedUnits())
        faults.markDown(dead);
    // Copies homed on a down unit can no longer be kept coherent with
    // its re-homed range: purge them from every camp cache and
    // prefetch buffer. The purges count as evictions, so the occupancy
    // conservation law (src/check) keeps holding mid-epoch.
    if (mem.cachingEnabled())
        for (UnitId dead : faults.failedUnits())
            mem.invalidateHomedOn(dead);
    for (auto &unit : units)
        unit.pb->invalidateMatching([this](Addr block) {
            return !faults.isLive(mem.campMapping().homeOf(block));
        });
    // Drain every dead unit's queues and re-inject the tasks so no
    // work is lost (task conservation under failure).
    for (UnitId dead : faults.failedUnits())
        recoverUnitTasks(dead);
}

void
NdpSystem::applyUnitRecovery()
{
    for (UnitId dead : faults.failedUnits())
        faults.markUp(dead);
    // The recovered units come back with empty queues; scheduling
    // decisions, steals, and the next exchange snapshot repopulate
    // them. Kick their dispatch loop so they can start stealing now.
    for (UnitId u : faults.failedUnits())
        tryDispatch(u);
}

void
NdpSystem::recoverUnitTasks(UnitId dead)
{
    auto &unit = units[dead];
    unit.prefetchedCount = 0;
    const UnitId buddy = faults.rehomeOf(dead);
    for (auto *queue : {&unit.pending, &unit.ready}) {
        for (; !queue->empty(); queue->pop_front()) {
            ++tasksRecovered;
            reinject(queue->front(), dead, buddy, dead);
        }
    }
    // Staged (next-epoch) tasks re-stage onto live units keeping their
    // queue kind; staging is bookkeeping, so no delivery events — only
    // the descriptor traffic is modelled.
    for (; !unit.stagedPending.empty(); unit.stagedPending.pop_front()) {
        const TaskRef ref = unit.stagedPending.front();
        ++tasksRecovered;
        moveLostTask(pool[ref], dead, buddy, dead);
        units[buddy].stagedPending.push_back(ref);
    }
    for (; !unit.stagedReady.empty(); unit.stagedReady.pop_front()) {
        const TaskRef ref = unit.stagedReady.front();
        Task &task = pool[ref];
        ++tasksRecovered;
        const UnitId dst = sched.choose(task, buddy);
        moveLostTask(task, dead, dst, dead);
        units[dst].stagedReady.push_back(ref);
    }
}

Tick
NdpSystem::moveLostTask(Task &task, UnitId owner, UnitId dst, UnitId sender)
{
    task.recovered = true;
    task.prefetched = false;
    sched.onStolen(owner, dst, task.loadEstimate);
    recoveryTrafficBytes += 32;
    const Tick now = eq.now();
    return now + mem.network().transfer(sender, dst, 32, now).latency;
}

void
NdpSystem::reinject(TaskRef task, UnitId owner, UnitId creator,
                    UnitId sender)
{
    Task &lost = pool[task];
    const UnitId dst = sched.choose(lost, creator);
    const Tick t = moveLostTask(lost, owner, dst, sender);
    eq.schedule(t, [this, dst, task] { landReady(dst, task); });
}

void
NdpSystem::trackDelivery(std::shared_ptr<TaskTransit> tr, Tick deliverAt)
{
    ++acksOutstanding[tr->dst];
    auto deliver = [this, tr] {
        // A dead receiver never acks; the timeout event recovers.
        if (tr->abandoned || !faults.isLive(tr->dst))
            return;
        tr->delivered = true;
        --acksOutstanding[tr->dst];
        if (tr->reexamine) {
            units[tr->dst].pending.push_back(tr->task);
            pumpScheduler(tr->dst);
        } else {
            landReady(tr->dst, tr->task);
        }
    };
    static_assert(EventQueue::callbackFits<decltype(deliver)>,
                  "tracked-delivery capture no longer fits the event "
                  "kernel's inline slot");
    eq.schedule(deliverAt, std::move(deliver));
    eq.scheduleIn(faults.ackTimeoutTicks(), [this, tr] {
        if (tr->delivered || tr->abandoned)
            return;
        tr->abandoned = true;
        --acksOutstanding[tr->dst];
        redispatchTask(tr);
    });
}

void
NdpSystem::redispatchTask(std::shared_ptr<TaskTransit> tr)
{
    std::uint8_t &attempts = pool[tr->task].redispatchCount;
    if (attempts < faults.maxRedispatch())
        ++attempts;
    ++tasksRedispatched;
    // Exponential backoff (capped shift) before the resend; the
    // creator's live buddy acts for it if the creator itself is down.
    Tick wait = faults.redispatchBackoffTicks(attempts - 1);
    eq.scheduleIn(wait, [this, tr, from = faults.rehomeOf(tr->from)] {
        Task &task = pool[tr->task];
        // A spent budget resends untracked; the arrival rule still
        // keeps the task off a unit that died in flight.
        if (task.redispatchCount >= faults.maxRedispatch()) {
            reinject(tr->task, tr->dst, from, from);
            return;
        }
        auto nt = std::make_shared<TaskTransit>();
        nt->from = from;
        nt->dst = sched.choose(task, from);
        const Tick t = moveLostTask(task, tr->dst, nt->dst, from);
        nt->task = tr->task;
        trackDelivery(nt, t);
    });
}

void
NdpSystem::reinjectStealBatch(std::shared_ptr<StealTransit> tr,
                              bool timedOut)
{
    const UnitId from = faults.rehomeOf(tr->thief);
    for (TaskRef task : tr->batch) {
        ++(timedOut ? tasksRedispatched : tasksRecovered);
        reinject(task, tr->thief, from, from);
    }
    tr->batch.clear();
}

void
NdpSystem::armExchange(Tick interval)
{
    eq.scheduleIn(interval, [this, interval] {
        sched.exchangeSnapshot(eq.now());
        if (lbOn)
            runLbExchange();
        if (activeRemaining > 0)
            armExchange(interval);
    });
}

void
NdpSystem::runLbExchange()
{
    // Snapshot the ready-queue depths — the same information the
    // exchange protocol broadcasts, so consulting it here adds no
    // extra communication beyond the shed commands themselves.
    for (UnitId u = 0; u < units.size(); ++u)
        lbQlen[u] = failuresOn && !faults.isLive(u)
            ? 0
            : static_cast<std::uint32_t>(units[u].ready.size());
    for (const ShedCmd &cmd : lbEngine->planSheds(lbQlen))
        executeShed(cmd);

    // Re-homing rides the same window. Skipped while units are down:
    // a dead home's range is buddy-served, and migrating out of it
    // would race the recovery re-homing (documented simplification).
    if (cfg.lb.migration.enabled && !faults.anyUnitDown()) {
        for (const MigrationCmd &m :
                 lbEngine->planMigrations(mem.campMapping())) {
            mem.migrateBlock(m.block, m.to, eq.now());
            if (checker)
                checker->onBlockMigrated(m.block);
        }
    }
    lbEngine->onWindow();
}

void
NdpSystem::executeShed(const ShedCmd &cmd)
{
    // The steal transfer (shipBatch) with a pooled batch slot in
    // flight.
    if (failuresOn
        && (!faults.isLive(cmd.victim) || !faults.isLive(cmd.thief)))
        return;
    const auto queued =
        static_cast<std::uint32_t>(units[cmd.victim].ready.size());
    const std::uint32_t count = std::min(cmd.count, queued);
    if (count == 0)
        return;

    const std::uint32_t slotIdx = grabBatchSlot();
    const Tick t = shipBatch(cmd.victim, cmd.thief, count,
                             batchPool[slotIdx]);
    (cmd.inter ? tasksShedInter : tasksShedIntra) += count;

    // Untracked even under failure: a thief that dies with the batch
    // in flight hands it, and its load, to its live buddy (landBatch).
    eq.schedule(t, [this, dst = cmd.thief, slotIdx] {
        batchPoolFree.push_back(slotIdx);
        landBatch(dst, batchPool[slotIdx]);
    });
}

void
NdpSystem::startEpoch(std::uint64_t ts)
{
    curEpoch = ts;
    activeRemaining = 0;
    if (tracer.enabled())
        tracer.record(obs::TraceEvent::EpochBegin,
                      obs::Tracer::systemUnit, 0, eq.now(), 0, ts);
    for (auto &unit : units)
        activeRemaining += unit.beginEpoch();
    stagedCount = 0;

    // Failure/recovery transitions must be re-armed every epoch: the
    // barrier cancelled all pending events. Runs before the exchange
    // snapshot so the first snapshot already sees the liveness mask.
    if (failuresOn)
        armFailureTransitions();

    if (windowPolicy || sched.stealingEnabled() || lbOn) {
        // The barrier is already a global synchronization point, so the
        // workload information exchange piggybacks on it; further
        // exchanges follow every interval within the epoch.
        sched.exchangeSnapshot(eq.now());
        if (lbOn)
            runLbExchange();
        armExchange(cfg.sched.exchangeIntervalCycles * cfg.ticksPerCycle());
    }

    for (UnitId u = 0; u < units.size(); ++u) {
        pumpScheduler(u);
        tryDispatch(u);
    }
}

void
NdpSystem::dumpStallDiagnostics(const std::string &reason,
                                bool simulatorBug)
{
    std::ostringstream oss;
    oss << reason << "\n";
    oss << "  tick " << eq.now() << " (" << eq.now() / 1000.0
        << " ns), epoch " << curEpoch << ", " << activeRemaining
        << " tasks live, " << eq.size() << " events pending, "
        << eq.executed() << " executed\n";
    if (failuresOn) {
        std::uint32_t unacked = 0;
        for (std::uint32_t a : acksOutstanding)
            unacked += a;
        oss << "  liveness: " << units.size() - faults.downCount()
            << "/" << units.size() << " units live, " << unacked
            << " un-acked deliveries, " << tasksRecovered.value()
            << " tasks recovered, " << tasksRedispatched.value()
            << " redispatched\n";
    }
    oss << "  per-unit queue depths (units with work or busy cores):\n";
    std::uint32_t listed = 0;
    constexpr std::uint32_t maxListed = 32;
    for (UnitId u = 0; u < units.size(); ++u) {
        const auto &unit = units[u];
        std::uint32_t busy = unit.busyCores();
        std::uint32_t unacked = failuresOn ? acksOutstanding[u] : 0;
        bool down = failuresOn && !faults.isLive(u);
        if (unit.pending.empty() && unit.ready.empty() && busy == 0
            && unacked == 0 && !down)
            continue;
        if (++listed > maxListed) {
            oss << "    ... (further units elided)\n";
            break;
        }
        oss << "    unit " << u << ": pending=" << unit.pending.size()
            << " ready=" << unit.ready.size() << " busyCores=" << busy;
        if (unit.schedBusy)
            oss << " schedBusy";
        if (unit.stealInFlight)
            oss << " stealInFlight";
        if (unacked > 0)
            oss << " unackedDeliveries=" << unacked;
        if (down)
            oss << " [down]";
        if (faults.isStraggler(u))
            oss << " [straggler]";
        oss << "\n";
    }
    if (listed == 0)
        oss << "    (none: all queues empty and all cores idle)\n";
    if (simulatorBug)
        panic(oss.str());
    fatal(oss.str());
}

void
NdpSystem::watchdogTrip(const std::string &window, const char *hint)
{
    dumpStallDiagnostics(
        logging_detail::concat(
            "watchdog: ", window, " exceeded its budget (",
            eq.watchdogEvents(), " events, ", eq.watchdogTicks() / 1000,
            " ns simulated; limits: maxEpochEvents=",
            cfg.fault.watchdog.maxEpochEvents, ", maxEpochTicks=",
            cfg.fault.watchdog.maxEpochTicks, ")", hint),
        false);
}

RunMetrics
NdpSystem::run(Workload &wl)
{
    abndp_assert(workload == nullptr,
                 "NdpSystem::run() may be called once");
    return cfg.serving.enabled() ? serveRun(wl) : batchRun(wl);
}

RunMetrics
NdpSystem::batchRun(Workload &wl)
{
    // Host-side self-measurement (simulator throughput). Wall-clock is
    // reporting only and never feeds back into simulation state.
    const auto hostStart = std::chrono::steady_clock::now();
    workload = &wl;
    wl.setup(alloc);

    curEpoch = 0;
    wl.emitInitialTasks(*this);

    std::uint64_t ts = 0;

    // Per-interval stats dumping (--stats-interval): every N epochs the
    // registry prints the counter deltas since the previous dump; N = 1
    // gives the per-epoch log.
    std::ofstream statsFile;
    std::ostream *statsOs = nullptr;
    if (cfg.statsInterval > 0) {
        if (!cfg.statsOut.empty()) {
            statsFile.open(cfg.statsOut);
            if (!statsFile)
                fatal("cannot open stats output file: ", cfg.statsOut);
            statsOs = &statsFile;
        } else {
            statsOs = &std::cout;
        }
        statsReg.beginInterval();
    }
    std::uint64_t lastDumpEpoch = 0;
    auto dumpIntervalNow = [&](std::uint64_t upto) {
        statsReg.dumpInterval(
            *statsOs,
            logging_detail::concat("interval epochs [", lastDumpEpoch,
                                   ", ", upto, ") tick ", eq.now()));
        lastDumpEpoch = upto;
    };

    while (stagedCount > 0 && (cfg.maxEpochs == 0 || ts < cfg.maxEpochs)) {
        // Epoch boundary: this epoch's staged hints live in the arena
        // generation children must not share; the generation freed here
        // held epoch ts-2's hints, whose tasks have all completed.
        wl.taskArena().rotate();
        eq.armWatchdog();
        // Epoch-start invariants run before startEpoch() dispatches
        // anything (dispatch already touches the caches).
        if (checker)
            checker->onEpochStart(ts, stagedCount);
        startEpoch(ts);
        // Drain the epoch: stop as soon as every task completed so that
        // periodic bookkeeping events (exchange ticks, steal backoffs)
        // cannot stretch the barrier, then cancel them.
        while (activeRemaining > 0) {
            if (!eq.runOne())
                dumpStallDiagnostics(
                    "deadlock: live tasks but no events", true);
            if (eq.watchdogTripped())
                watchdogTrip(logging_detail::concat("epoch ", ts), "");
        }
        if (checker)
            checker->onEpochEnd(ts, epochTaskCount - epochRecoveredCount,
                                epochRecoveredCount, stagedCount);
        eq.clearPending();
        for (auto &unit : units)
            unit.resetTransient();
        epochTaskCount = 0;
        epochRecoveredCount = 0;

        // Bulk-synchronous timestamp boundary: invalidate all cached
        // primary data (tag clear; no writebacks) and apply updates.
        mem.bulkInvalidate();
        for (auto &unit : units)
            unit.invalidatePrimaryData();
        // The barrier is also a time fence: every event of the next
        // epoch is scheduled at or after now(), so meter pages wholly
        // below it are unreachable and their storage can be reclaimed
        // (bounds resident pages to one epoch's backlog window).
        mem.discardBefore(eq.now());
        wl.endEpoch(ts);
        ++ts;
        ++epochsDone;
        if (cfg.statsInterval > 0 && ts % cfg.statsInterval == 0)
            dumpIntervalNow(ts);
    }

    // Final partial interval, so every epoch is covered by some dump.
    if (cfg.statsInterval > 0 && ts > lastDumpEpoch)
        dumpIntervalNow(ts);

    if (ts == 0)
        warn("workload ", wl.name(), " emitted no initial tasks; zero "
             "epochs were simulated and every metric is zero");

    return finishRun(hostStart, ts);
}

void
NdpSystem::injectServingTask(Task &&task)
{
    task.mainHome = mainHomeOf(task);
    // No finalizeBlocks(): serving tasks outlive every epoch-arena
    // generation. A task that arrives with its block list memoized
    // (borrowed from run-lived storage, hintLines set alongside) keeps
    // it; any other keeps an empty list (the access path derives it
    // from the hint) and memoizes only hintLines.
    if (task.blocks.empty())
        task.hintLines = task.hint.totalLines();
    if (checker)
        checker->onTaskEnqueued(task);
    task.loadEstimate = sched.estimateLoad(task);
    ++activeRemaining;

    if (windowPolicy) {
        // Figure-4 path, without the staging detour: arrivals have no
        // creating unit, so they spread round-robin into live pending
        // queues (a down unit's buddy takes its turn) and the
        // scheduling window places them from there.
        const UnitId creator = faults.rehomeOf(
            static_cast<UnitId>(initialSpread++ % units.size()));
        sched.onEnqueued(creator, task.loadEstimate);
        units[creator].pending.push_back(pool.add(std::move(task)));
        pumpScheduler(creator);
    } else {
        const UnitId dst = sched.choose(task, task.mainHome);
        sched.onEnqueued(dst, task.loadEstimate);
        landReady(dst, pool.add(std::move(task)));
    }
}

void
NdpSystem::serveArrival()
{
    const ServingConfig &sc = cfg.serving;
    // Tenant and key are drawn for every arrival, admitted or not, so
    // admission decisions can never shift the stream's draw sequence.
    Rng &krng = srv->arrivals.keyRng();
    std::uint8_t tenant = sc.tenants > 1 ? srv->tenantFor(krng.uniform())
                                         : 0;
    std::uint64_t key = srv->zipf(krng);
    ++servingInjected;

    if (sc.maxOutstanding == 0 || activeRemaining < sc.maxOutstanding) {
        Task task = srv->svc->makeQueryTask(key, srv->admitted++);
        task.servingArrival = eq.now();
        task.tenant = tenant;
        injectServingTask(std::move(task));
    } else {
        ++servingRejected;
    }

    if (servingInjected.value() < sc.requests)
        eq.schedule(srv->arrivals.nextArrival(eq.now()),
                    [this] { serveArrival(); });
}

void
NdpSystem::armServingWindow(Tick interval)
{
    // The serving analogue of the epoch boundary, minus the barrier:
    // the watchdog budget re-arms, the schedulers refresh their
    // exchange snapshot, and wholly-past meter pages are reclaimed
    // (every future event books bandwidth at t >= now, so pages below
    // now are unreachable — the same argument the batch barrier uses).
    // Nothing drains, and no cache is invalidated: primary data is
    // read-only under serving, so there is no timestamp boundary.
    eq.scheduleIn(interval, [this, interval] {
        ++servingWindows;
        eq.armWatchdog();
        if (windowPolicy || sched.stealingEnabled())
            sched.exchangeSnapshot(eq.now());
        if (lbOn)
            runLbExchange();
        mem.discardBefore(eq.now());
        armServingWindow(interval);
    });
}

void
NdpSystem::recordServedCompletion(UnitId u, std::uint32_t c)
{
    const CoreState &core = units[u].cores[c];
    Tick latency = eq.now() - core.servingArrival;
    servingLat.record(latency);
    servingTenantLat[core.servingTenant].record(latency);
    if (core.servingRecovered)
        ++servingCompletedRecovered;
    else
        ++servingCompletedDirect;
}

RunMetrics
NdpSystem::serveRun(Workload &wl)
{
    const auto hostStart = std::chrono::steady_clock::now();
    workload = &wl;
    auto *svc = dynamic_cast<QueryService *>(&wl);
    if (svc == nullptr)
        fatal("workload ", wl.name(), " cannot be served: it does not "
              "implement QueryService (point-query serving needs kv, "
              "knn, sssp, or astar)");
    servingMode = true;

    wl.setup(alloc);
    const ServingConfig &sc = cfg.serving;
    abndp_assert(svc->keySpace() > 0, "empty key space after setup");
    svc->beginServing(sc.requests);
    srv = std::make_unique<ServeState>(sc, cfg.seed, svc->keySpace(),
                                       svc);
    servingLat.reserve(sc.requests);

    curEpoch = 0;
    eq.armWatchdog();
    if (failuresOn)
        armFailureTransitions();
    if (windowPolicy || sched.stealingEnabled())
        sched.exchangeSnapshot(eq.now());
    // No lb exchange here: the queues are empty until the first
    // arrival, so the first useful window is the armed one below.
    armServingWindow(cfg.sched.exchangeIntervalCycles
                     * cfg.ticksPerCycle());
    eq.schedule(srv->arrivals.nextArrival(eq.now()),
                [this] { serveArrival(); });

    // Drive the open loop: run until the stream is exhausted and every
    // admitted request completed. There is no drain barrier in between
    // — new arrivals keep injecting while earlier requests execute.
    while (activeRemaining > 0 || servingInjected.value() < sc.requests) {
        if (!eq.runOne())
            dumpStallDiagnostics(
                "deadlock: serving stream live but no events", true);
        if (eq.watchdogTripped())
            watchdogTrip("serving window",
                         "; the open-loop arrival rate may exceed what "
                         "this design can sustain");
    }
    // Only bookkeeping chains remain (windows, steal backoffs).
    eq.clearPending();

    return finishRun(hostStart, servingWindows.value());
}

RunMetrics
NdpSystem::finishRun(std::chrono::steady_clock::time_point hostStart,
                     std::uint64_t epochs)
{
    energy.finalizeStatic(lastCompletionTick);

    RunMetrics m;
    m.ticks = lastCompletionTick;
    m.epochs = epochs;
    m.tasks = totalTasks.value();
    m.interHops = mem.network().totalInterHops();
    m.intraTraversals = mem.network().totalIntraTraversals();
    m.energy = energy.breakdown();
    m.campHits = mem.campHits();
    m.campMisses = mem.campMisses();
    m.cacheInserts = mem.cacheInsertions();
    m.readLatMeanNs = mem.readLatencyNs().mean();
    m.readLatMaxNs = mem.readLatencyNs().max();
    m.stealAttempts = stealAttempts.value();
    m.stolenTasks = stolenTasks.value();
    m.forwardedTasks = forwardedTasks.value();
    m.schedDecisions = sched.decisions();
    for (UnitId u = 0; u < units.size(); ++u) {
        const auto &unit = units[u];
        m.pbHits += unit.pb->hits();
        m.pbLateHits += unit.pb->lateHits();
        m.pbMisses += unit.pb->misses();
        for (const auto &core : unit.cores) {
            m.coreActiveTicks.push_back(core.activeTicks);
            m.l1Hits += core.l1d->hits();
            m.l1Misses += core.l1d->misses();
        }
        m.dramReads += mem.dram(u).reads();
        m.dramWrites += mem.dram(u).writes();
        m.dramRowMisses += mem.dram(u).rowMisses();
        m.dramRowHits += mem.dram(u).rowHits();
        m.dramActStalls += mem.dram(u).actStalls();
        m.dramEccRetries += mem.dram(u).eccRetries();
    }
    m.netDropped = mem.network().totalDropped();
    m.netRetries = mem.network().totalRetries();
    m.unitsFailed = everFailed
        ? static_cast<std::uint64_t>(faults.failedUnits().size())
        : 0;
    m.tasksRecovered = tasksRecovered.value();
    m.tasksRedispatched = tasksRedispatched.value();
    m.recoveryTrafficBytes = recoveryTrafficBytes.value();
    m.tasksShedIntra = tasksShedIntra.value();
    m.tasksShedInter = tasksShedInter.value();
    m.blocksMigrated = mem.blocksMigrated();
    m.migrationInvalidations = mem.migrationInvalidations();
    m.migrationTrafficBytes = mem.migrationTrafficBytes();
    m.simEvents = eq.executed();

    // Serving fields: all zero in batch runs (no samples recorded).
    m.servingInjected = servingInjected.value();
    m.servingRejected = servingRejected.value();
    m.servingCompletedDirect = servingCompletedDirect.value();
    m.servingCompletedRecovered = servingCompletedRecovered.value();
    m.servingSloMisses = servingLat.sloMisses();
    m.servingWindows = servingWindows.value();
    m.servingP50Ns = servingPercentileNs(0.50);
    m.servingP95Ns = servingPercentileNs(0.95);
    m.servingP99Ns = servingPercentileNs(0.99);
    m.servingP999Ns = servingPercentileNs(0.999);
    m.servingMeanNs = servingLat.meanTicks() / ticksPerNs;
    m.servingGoodputQps = servingGoodputQps();
    m.servingSloMissRate = servingSloMissRate();

    if (checker)
        checker->onRunEnd(m);

    if (!cfg.traceOut.empty()) {
        std::ofstream tf(cfg.traceOut);
        if (!tf)
            fatal("cannot open trace output file: ", cfg.traceOut);
        tracer.exportChromeJson(tf);
    }

    m.hostSeconds = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - hostStart).count();
    return m;
}

double
NdpSystem::servingPercentileNs(double q) const
{
    return static_cast<double>(servingLat.percentile(q)) / ticksPerNs;
}

double
NdpSystem::servingGoodputQps() const
{
    // Completed-within-SLO requests per simulated second.
    if (lastCompletionTick == 0)
        return 0.0;
    double ok = static_cast<double>(servingLat.samples()
                                    - servingLat.sloMisses());
    return ok / (static_cast<double>(lastCompletionTick) * 1e-12);
}

double
NdpSystem::servingSloMissRate() const
{
    // Rejections count as misses: open-loop load shed is load the
    // tenant offered and the machine did not serve in time.
    if (servingInjected.value() == 0)
        return 0.0;
    return static_cast<double>(servingRejected.value()
                               + servingLat.sloMisses())
        / static_cast<double>(servingInjected.value());
}

} // namespace abndp
