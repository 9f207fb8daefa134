#include "core/mem_system.hh"

#include <cstdlib>

namespace abndp
{

MemSystem::MemSystem(const SystemConfig &cfg, const Topology &topo,
                     const AddressMap &amap, EnergyAccount &energy,
                     FaultModel *faults, obs::Tracer *tracer)
    : cfg(cfg), topo(topo), amap(amap), energy(energy), faults(faults),
      net(cfg, topo, energy, faults, tracer),
      camps(cfg, topo, amap),
      style(cfg.traveller.style),
      tracer(tracer),
      tagCheckTicks(static_cast<Tick>(cfg.traveller.tagCheckNs
                                      * ticksPerNs)),
      sramDataTicks(static_cast<Tick>(cfg.traveller.sramDataNs
                                      * ticksPerNs)),
      latencyHist(0.0, 4096.0, 64)
{
    drams.reserve(cfg.numUnits());
    for (UnitId u = 0; u < cfg.numUnits(); ++u)
        drams.push_back(makeMemBackend(cfg, energy, u, faults));

    traceReads = std::getenv("ABNDP_READ_HIST") != nullptr;

    // Classic designs keep a null indirection pointer in the mapping,
    // so their homeOf() stays the bare static partition.
    if (cfg.lb.migration.enabled)
        camps.setHomeIndirection(&indirection);

    if (style != CacheStyle::None) {
        campCaches.reserve(cfg.numUnits());
        for (UnitId u = 0; u < cfg.numUnits(); ++u)
            campCaches.push_back(std::make_unique<TravellerCache>(
                cfg, mix64(cfg.seed ^ (0x1000ull + u))));
    }
}

Tick
MemSystem::homeRead(UnitId u, UnitId home, Addr addr, Tick start)
{
    ++nHomeDirect;
    if (home == u)
        return drams[home]->access(addr, cachelineBytes, false, false,
                                   start);
    // Request to the home, DRAM access, data back.
    Tick t = start;
    t += net.transfer(u, home, PacketSizes::request, t).latency;
    t += drams[home]->access(addr, cachelineBytes, false, false, t);
    t += net.transfer(home, u, PacketSizes::data, t).latency;
    return t - start;
}

AccessResult
MemSystem::read(const AccessRequest &req)
{
    AccessResult res;
    res.latency = readBlockImpl(req.unit, req.addr, req.start,
                                res.served);
    latencyNs.sample(static_cast<double>(res.latency) / ticksPerNs);
    latencyHist.sample(static_cast<double>(res.latency) / ticksPerNs);
    // Debug histogram: opt-in via ABNDP_READ_HIST=1 (checked once at
    // construction); benchmark runs never touch the hash map.
    if (traceReads) [[unlikely]]
        ++debugReadHist[blockAlign(req.addr)];
    return res;
}

Tick
MemSystem::readBlock(UnitId u, Addr addr, Tick start)
{
    return read(AccessRequest{u, 0, addr, start, false}).latency;
}

Tick
MemSystem::readBlockImpl(UnitId u, Addr addr, Tick start,
                         AccessLevel &served)
{
    addr = blockAlign(addr);
    // Degraded mode: a down home unit's range is served by its live
    // buddy (replica semantics); identical to homeOf() with no unit
    // failure active.
    UnitId home = liveHomeOf(addr);
    served = AccessLevel::HomeDram;

    // Hotness evidence for the lb migration engine: only remote
    // demand argues for re-homing. Recording is observational — it
    // feeds no timing and no Rng stream.
    if (hotness && u != home) [[unlikely]]
        hotness->record(home, addr, u);

    if (style == CacheStyle::None)
        return homeRead(u, home, addr, start);

    // Probe only the nearest candidate location (Section 4.3).
    UnitId camp = camps.nearestCandidate(addr, u);
    if (camp == home)
        return homeRead(u, home, addr, start);
    // A down camp cannot be probed (or filled): fall through to the
    // effective home directly.
    if (faults && faults->anyUnitDown() && !faults->isLive(camp))
        return homeRead(u, home, addr, start);

    Tick t = start;
    if (camp != u)
        t += net.transfer(u, camp, PacketSizes::request, t).latency;

    // Tag check at the camp.
    bool hit;
    switch (style) {
      case CacheStyle::TravellerSramTags:
      case CacheStyle::SramData:
        energy.addTagAccess();
        t += tagCheckTicks;
        hit = campCaches[camp]->lookup(addr);
        break;
      case CacheStyle::DramTags:
        // Tags live in DRAM with the data: every probe pays a DRAM
        // access to read the tag (Figure 13).
        t += drams[camp]->access(camps.cacheSlotAddr(addr) ^ 0x20,
                                 PacketSizes::request, false, true, t);
        hit = campCaches[camp]->lookup(addr);
        break;
      default:
        panic("unreachable cache style");
    }

    if (hit) {
        served = AccessLevel::TravellerCamp;
        ++nCampHits;
        if (tracer && tracer->enabled())
            tracer->record(obs::TraceEvent::TravellerHit, camp,
                           obs::Tracer::laneCache, t, 0, addr);
        if (style == CacheStyle::SramData) {
            energy.addSramDataCacheAccess();
            t += sramDataTicks;
        } else {
            t += drams[camp]->access(camps.cacheSlotAddr(addr),
                                     cachelineBytes, false, true, t);
        }
        if (camp != u)
            t += net.transfer(camp, u, PacketSizes::data, t).latency;
        return t - start;
    }

    // Camp miss: forward to home, read memory, return data to requester.
    ++nCampMisses;
    if (tracer && tracer->enabled())
        tracer->record(obs::TraceEvent::TravellerMiss, camp,
                       obs::Tracer::laneCache, t, 0, addr);
    Tick th = t;
    if (camp != home)
        th += net.transfer(camp, home, PacketSizes::request, th).latency;
    th += drams[home]->access(addr, cachelineBytes, false, false, th);
    Tick done = th;
    if (home != u)
        done += net.transfer(home, u, PacketSizes::data, done).latency;

    // Off the critical path: try to insert into the probed camp.
    if (campCaches[camp]->maybeInsert(addr)) {
        ++nInserts;
        Tick ti = th;
        if (home != camp)
            ti += net.transfer(home, camp, PacketSizes::data, ti).latency;
        if (style == CacheStyle::SramData) {
            energy.addSramDataCacheAccess();
        } else {
            drams[camp]->access(camps.cacheSlotAddr(addr), cachelineBytes,
                                true, true, ti);
        }
        if (style == CacheStyle::DramTags)
            drams[camp]->access(camps.cacheSlotAddr(addr) ^ 0x20,
                                PacketSizes::request, true, true, ti);
        else
            energy.addTagAccess();
    }

    return done - start;
}

void
MemSystem::writeBlock(UnitId u, Addr addr, Tick start)
{
    addr = blockAlign(addr);
    UnitId home = liveHomeOf(addr);
    Tick t = start;
    if (home != u)
        t += net.transfer(u, home, PacketSizes::data, t).latency;
    drams[home]->access(addr, cachelineBytes, true, false, t);
}

std::uint64_t
MemSystem::invalidateHomedOn(UnitId dead)
{
    std::uint64_t dropped = 0;
    for (auto &cc : campCaches)
        dropped += cc->invalidateMatching([this, dead](Addr block) {
            return camps.homeOf(block) == dead;
        });
    return dropped;
}

void
MemSystem::migrateBlock(Addr block, UnitId to, Tick now)
{
    block = blockAlign(block);
    UnitId from = camps.homeOf(block);
    if (from == to)
        return;
    // Ship the block: read at the old home, one data packet across
    // the NoC, write at the new home.
    drams[from]->access(block, cachelineBytes, false, false, now);
    net.transfer(from, to, PacketSizes::data, now);
    drams[to]->access(block, cachelineBytes, true, false, now);
    nMigrationTraffic += PacketSizes::data;
    // Every cached copy was placed under an earlier home and is now
    // stale. Copies only ever sit in the block's camp units, one per
    // group, so one set probe per camp drops them all. Dropped blocks
    // count as evictions inside the Traveller, preserving the
    // occupancy conservation law.
    if (cachingEnabled()) {
        CandidateList holders;
        camps.campsUnderAnyHome(block, holders);
        for (std::uint32_t g = 0; g < holders.n; ++g)
            campCaches[holders.loc[g]]->invalidate(block);
        ++nMigrationInvalidations;
    }
    indirection.set(block, to, amap.homeOf(block));
    ++nMigrated;
}

void
MemSystem::regStats(obs::StatNode &node) const
{
    node.addCounter("campHits", &nCampHits);
    node.addCounter("campMisses", &nCampMisses);
    node.addCounter("homeDirectReads", &nHomeDirect);
    node.addCounter("cacheInsertions", &nInserts);
    node.addDistribution("readLatencyNs", &latencyNs);
    node.addHistogram("readLatencyHistNs", &latencyHist);
    node.addFormula("campHitRate", [this]() {
        double total = static_cast<double>(nCampHits.value())
            + static_cast<double>(nCampMisses.value());
        return total > 0.0 ? nCampHits.value() / total : 0.0;
    });
}

void
MemSystem::regLbStats(obs::StatNode &node) const
{
    node.addCounter("blocksMigrated", &nMigrated);
    node.addCounter("migrationInvalidations", &nMigrationInvalidations);
    node.addCounter("migrationTrafficBytes", &nMigrationTraffic);
}

void
MemSystem::bulkInvalidate()
{
    for (auto &cc : campCaches)
        cc->bulkInvalidate();
}

} // namespace abndp
