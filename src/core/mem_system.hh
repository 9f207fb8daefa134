/**
 * @file
 * The NDP memory system: per-unit DRAM channels (each a pluggable
 * MemBackend — meter or bank-state DDR timing), the distributed
 * Traveller Cache (or its Figure-13 alternatives), and the interconnect,
 * glued together by the end-to-end access flow of paper Section 4.4.
 * The access flow and servedLevel semantics are backend-independent;
 * only the per-access latency model changes with cfg.dram.backend.
 */

#ifndef ABNDP_CORE_MEM_SYSTEM_HH
#define ABNDP_CORE_MEM_SYSTEM_HH

#include <memory>
#include <unordered_map>
#include <vector>

#include "cache/camp_mapping.hh"
#include "cache/traveller_cache.hh"
#include "common/config.hh"
#include "core/access_types.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "energy/energy.hh"
#include "fault/fault_model.hh"
#include "mem/address_map.hh"
#include "mem/mem_backend.hh"
#include "net/network.hh"
#include "net/topology.hh"
#include "obs/stats_registry.hh"
#include "obs/trace.hh"
#include "sched/lb/data_hotness.hh"
#include "sched/lb/home_indirection.hh"

namespace abndp
{

/** Distributed memory + camp cache + interconnect access engine. */
class MemSystem
{
  public:
    /**
     * @param faults optional fault-injection engine, forwarded to the
     *               interconnect (link faults) and the DRAM channels
     *               (ECC retries, straggler bandwidth derating).
     * @param tracer optional event tracer, forwarded to the interconnect
     *               and used for camp hit/miss events.
     */
    MemSystem(const SystemConfig &cfg, const Topology &topo,
              const AddressMap &amap, EnergyAccount &energy,
              FaultModel *faults = nullptr,
              obs::Tracer *tracer = nullptr);

    /**
     * Serve one block-read descriptor, following the Traveller access
     * flow: probe the nearest camp (if caching is on), fall through to
     * the home on a miss, and probabilistically insert. The result
     * carries the latency until the data arrives back at the requester
     * and which level served it.
     */
    AccessResult read(const AccessRequest &req);

    /**
     * Latency-only convenience wrapper around read() for callers that
     * do not care which level served the block.
     */
    Tick readBlock(UnitId u, Addr addr, Tick start);

    /**
     * Posted write of one block from unit @p u: bypasses all caches and
     * goes straight to the home memory (Section 4.4). Reserves resources
     * and accounts energy; the issuing core does not stall.
     */
    void writeBlock(UnitId u, Addr addr, Tick start);

    /** Bulk-invalidate every unit's camp cache (end of timestamp). */
    void bulkInvalidate();

    /**
     * Hotness-driven re-homing (src/sched/lb): move ownership of
     * @p block to unit @p to. Ships one data packet from the current
     * home, pays a DRAM read there and a write at the new home,
     * drops the block's stale camp copies (one set probe in each of
     * its camp units, CampMapping::campsUnderAnyHome), and
     * records the move in the indirection overlay consulted by
     * CampMapping::homeOf(). Traffic and energy are charged to the
     * meters; no task blocks on the move (re-homing rides the
     * exchange window).
     */
    void migrateBlock(Addr block, UnitId to, Tick now);

    /**
     * Barrier-time storage reclamation: retire bandwidth-meter pages
     * that no reservation can reach anymore. Called with the barrier
     * tick (every post-barrier access starts at or after it); forwards
     * to every DRAM channel (per-bank refresh floor applies there) and
     * the interconnect. Purely a memory-footprint optimization — the
     * timing and stats of every subsequent reservation are identical.
     */
    void
    discardBefore(Tick tb)
    {
        for (auto &d : drams)
            d->discardBefore(tb);
        net.discardBefore(tb);
    }

    /**
     * Unit-failure support: drop every camp-cache block whose home is
     * @p dead (its copies can no longer be revalidated once the home
     * range is re-homed onto a buddy).
     * @return the total number of blocks dropped across all camps.
     */
    std::uint64_t invalidateHomedOn(UnitId dead);

    Network &network() { return net; }
    const Network &network() const { return net; }
    const CampMapping &campMapping() const { return camps; }
    MemBackend &dram(UnitId u) { return *drams[u]; }
    TravellerCache &traveller(UnitId u) { return *campCaches[u]; }
    bool cachingEnabled() const { return style != CacheStyle::None; }

    std::uint64_t campHits() const { return nCampHits.value(); }
    std::uint64_t campMisses() const { return nCampMisses.value(); }
    std::uint64_t homeDirectReads() const { return nHomeDirect.value(); }
    std::uint64_t cacheInsertions() const { return nInserts.value(); }

    // Migration accounting (all zero when lb is unconfigured).
    std::uint64_t blocksMigrated() const { return nMigrated.value(); }
    std::uint64_t migrationInvalidations() const
    {
        return nMigrationInvalidations.value();
    }
    std::uint64_t migrationTrafficBytes() const
    {
        return nMigrationTraffic.value();
    }
    const HomeIndirection &homeIndirection() const { return indirection; }

    /**
     * Attach the lb engine's hot-block tracker: remote reads start
     * recording (home, block, requester) evidence. Null (the default)
     * keeps the read path free of any hotness work.
     */
    void setHotnessTracker(DataHotness *h) { hotness = h; }

    /** Distribution of end-to-end block read latencies (ns). */
    const stats::Distribution &readLatencyNs() const { return latencyNs; }

    /** Histogram of end-to-end block read latencies (ns). */
    const stats::Histogram &readLatencyHistNs() const { return latencyHist; }

    /** Register memory-system-level stats under @p node. */
    void regStats(obs::StatNode &node) const;

    /**
     * Register migration stats under @p node. Separate from
     * regStats() so NdpSystem only adds these lines under designs
     * that configure the lb — classic stats dumps stay byte-
     * identical.
     */
    void regLbStats(obs::StatNode &node) const;

    /** Debug: per-block read counts (populated when ABNDP_READ_HIST=1). */
    const std::unordered_map<Addr, std::uint64_t> &readHist() const
    {
        return debugReadHist;
    }

  private:
    /** Plain home access without any camp involvement. */
    Tick homeRead(UnitId u, UnitId home, Addr addr, Tick start);

    /**
     * read() body; the public wrapper samples latency stats.
     * @p served reports the serving level (observational only).
     */
    Tick readBlockImpl(UnitId u, Addr addr, Tick start,
                       AccessLevel &served);

    /**
     * Effective home of @p addr: the mapped home while it is live, its
     * live buddy (FaultModel::rehomeOf) while the home unit is down.
     * Exact identity whenever no unit failure is active.
     */
    UnitId
    liveHomeOf(Addr addr) const
    {
        UnitId home = camps.homeOf(addr);
        if (faults && faults->anyUnitDown() && !faults->isLive(home))
            return faults->rehomeOf(home);
        return home;
    }

    const SystemConfig &cfg;
    const Topology &topo;
    const AddressMap &amap;
    EnergyAccount &energy;
    FaultModel *faults;

    Network net;
    CampMapping camps;
    CacheStyle style;
    obs::Tracer *tracer;

    /** Re-homing overlay (migration); empty unless blocks moved. */
    HomeIndirection indirection;
    /** Hot-block tracker owned by the lb engine; null without lb. */
    DataHotness *hotness = nullptr;

    std::vector<std::unique_ptr<MemBackend>> drams;
    std::vector<std::unique_ptr<TravellerCache>> campCaches;

    /** SRAM tag-check latency at a camp location. */
    Tick tagCheckTicks;
    /** Pure-SRAM data cache access latency (Figure 13 variant). */
    Tick sramDataTicks;

    stats::Counter nCampHits;
    stats::Counter nCampMisses;
    stats::Counter nHomeDirect;
    stats::Counter nInserts;
    stats::Counter nMigrated;
    stats::Counter nMigrationInvalidations;
    stats::Counter nMigrationTraffic;
    stats::Distribution latencyNs;
    stats::Histogram latencyHist;
    bool traceReads = false;
    std::unordered_map<Addr, std::uint64_t> debugReadHist;
};

} // namespace abndp

#endif // ABNDP_CORE_MEM_SYSTEM_HH
