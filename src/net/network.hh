/**
 * @file
 * Hierarchical interconnect timing/energy model: XY-routed inter-stack
 * mesh with per-link bandwidth reservation plus per-stack crossbars with
 * per-port serialization. Packet hops and transferred bits feed the
 * Figure-8 hop metric and the interconnect energy component.
 *
 * XY routes are fixed, so the constructor records the route of every
 * (source stack, destination stack) pair once, as the directed link ids
 * it crosses: one flat array of link ids plus numStacks^2 + 1 offsets
 * (21,504 ids and 4,097 offsets on an 8x8 mesh; the ids grow as
 * numStacks^2 times the mean route length). A packet walks its route's
 * link ids instead of recomputing coordinates per hop.
 */

#ifndef ABNDP_NET_NETWORK_HH
#define ABNDP_NET_NETWORK_HH

#include <cstdint>
#include <vector>

#include "common/config.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "energy/energy.hh"
#include "fault/fault_model.hh"
#include "net/topology.hh"
#include "obs/stats_registry.hh"
#include "obs/trace.hh"
#include "sim/bandwidth_meter.hh"

namespace abndp
{

namespace check
{
class CheckContext;
} // namespace check

/** Result of one network transfer. */
struct TransferResult
{
    /** One-way latency including queueing and serialization. */
    Tick latency = 0;
    /** Inter-stack mesh hops traversed. */
    std::uint32_t interHops = 0;
};

/** Common packet sizes (bytes): header-only request and line-sized data. */
struct PacketSizes
{
    static constexpr std::uint32_t request = 16;
    static constexpr std::uint32_t data = cachelineBytes + 16;
};

/** The two-level NDP interconnect. */
class Network
{
  public:
    /**
     * @param faults optional fault-injection engine; faulty mesh links
     *               add latency and transiently drop packets (bounded
     *               retry with exponential backoff).
     * @param tracer optional event tracer; every packet records one
     *               NocTransfer event on the source unit's NoC lane.
     */
    Network(const SystemConfig &cfg, const Topology &topo,
            EnergyAccount &energy, FaultModel *faults = nullptr,
            obs::Tracer *tracer = nullptr);

    /**
     * Send @p bytes from @p src to @p dst starting at @p start, reserving
     * link/port bandwidth along the way.
     */
    TransferResult transfer(UnitId src, UnitId dst, std::uint32_t bytes,
                            Tick start);

    /** Total inter-stack hops of all packets so far (Figure 8 metric). */
    std::uint64_t totalInterHops() const { return interHops.value(); }

    /** Total intra-stack crossbar traversals so far. */
    std::uint64_t totalIntraTraversals() const { return intraHops.value(); }

    std::uint64_t totalPackets() const { return packets.value(); }

    /** Transmission attempts lost on faulty links (fault injection). */
    std::uint64_t totalDropped() const { return dropped.value(); }

    /** Retransmissions issued to repair faulty-link drops. */
    std::uint64_t totalRetries() const { return retries.value(); }

    /** Queueing delay at crossbar ports (ns). */
    const stats::Distribution &portWaitNs() const { return portWait; }

    /** Queueing delay at mesh links (ns). */
    const stats::Distribution &linkWaitNs() const { return linkWait; }

    /** Clear link/port reservations (between epochs of separate runs). */
    void resetState();

    /**
     * Retire meter pages below the run loop's time fence @p tb on
     * every link, port, and ring meter. Exact: transfer() reserves
     * hops at monotonically advancing ticks starting from the packet's
     * start, and after the fence every future packet starts at or
     * after @p tb, so no reservation can ever land below it.
     */
    void discardBefore(Tick tb);

    /** Register the interconnect stats under @p node. */
    void regStats(obs::StatNode &node) const;

    // ---- Invariant checking (src/check; observational only) ----

    /**
     * Arm the per-packet hop check: every transfer's walked hop count
     * is compared against the topology's Manhattan distance, and an
     * expected-hop total accumulates for end-of-epoch reconciliation
     * with the interHops counter. Mirrors the tracer injection pattern;
     * a null context (the default) costs one pointer test per packet.
     */
    void setCheckContext(check::CheckContext *ctx) { checkCtx = ctx; }

    /**
     * Sum of topology-predicted hop counts over all checked packets;
     * equals totalInterHops() when the checker was armed for the whole
     * run and every packet routed minimally.
     */
    std::uint64_t expectedInterHops() const { return checkedHops; }

    /** Visit every link, port and ring meter (audits only). */
    void forEachMeter(const MeterVisitor &visit) const;

  private:
    /** Index of the directed mesh link leaving stack s toward dir. */
    static std::uint32_t
    linkIndex(StackId s, std::uint32_t dir)
    {
        return s * 4 + dir;
    }

    const Topology &topo;
    EnergyAccount &energy;
    FaultModel *faults;
    obs::Tracer *tracer;
    check::CheckContext *checkCtx = nullptr;
    /** Topology-predicted hops of every packet checked so far. */
    std::uint64_t checkedHops = 0;
    IntraTopology intraTopo;
    std::uint32_t unitsPerStack;
    /** Any faulty link configured (hoists the per-hop fault query). */
    bool linkFaultsOn = false;

    Tick intraLatency;
    Tick interLatency;
    double intraTicksPerByte;
    double interTicksPerByte;

    /**
     * The XY route from stack s to stack d is routeLinks[routeStart[p]]
     * up to routeLinks[routeStart[p + 1]], p = s * numStacks + d: the
     * directed link ids it crosses, x first, then y.
     */
    std::vector<std::uint32_t> routeStart;
    std::vector<std::uint32_t> routeLinks;

    /** Bandwidth meter of each directed mesh link (stack x 4 dirs). */
    std::vector<BandwidthMeter> linkMeter;
    /**
     * Intra-stack meters: one crossbar port per unit, or one directed
     * ring link per (unit, direction) in ring mode (same storage).
     */
    std::vector<BandwidthMeter> portMeter;
    std::vector<BandwidthMeter> ringMeter; // ring mode: 2 per unit

    stats::Counter interHops;
    stats::Counter intraHops;
    stats::Counter packets;
    stats::Counter dropped;
    stats::Counter retries;
    stats::Distribution portWait;
    stats::Distribution linkWait;
};

} // namespace abndp

#endif // ABNDP_NET_NETWORK_HH
