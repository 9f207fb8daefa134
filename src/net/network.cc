#include "net/network.hh"

#include <algorithm>

#include "check/check_context.hh"

namespace abndp
{

Network::Network(const SystemConfig &cfg, const Topology &topo,
                 EnergyAccount &energy, FaultModel *faults,
                 obs::Tracer *tracer)
    : topo(topo),
      energy(energy),
      faults(faults),
      tracer(tracer),
      meshX(cfg.meshX),
      intraLatency(static_cast<Tick>(cfg.net.intraHopNs * ticksPerNs)),
      interLatency(static_cast<Tick>(cfg.net.interHopNs * ticksPerNs)),
      // intra link: intraLinkBits wide at intraGHz (one transfer/cycle).
      intraTicksPerByte(8.0 * 1000.0
                        / (cfg.net.intraLinkBits * cfg.net.intraGHz)),
      // inter link: interGBs bytes per ns is interGBs / 1e0; ticks/byte =
      // 1000 / (GB/s) since 1 GB/s = 1 byte/ns.
      interTicksPerByte(1000.0 / cfg.net.interGBs),
      linkMeter(static_cast<std::size_t>(topo.numStacks()) * 4),
      portMeter(topo.numUnits()),
      ringMeter(cfg.net.intraTopology == IntraTopology::Ring
                    ? static_cast<std::size_t>(topo.numUnits()) * 2
                    : 0)
{
    intraTopo = cfg.net.intraTopology;
    unitsPerStack = cfg.unitsPerStack;
    linkFaultsOn = faults && faults->anyLinkFault();
}

TransferResult
Network::transfer(UnitId src, UnitId dst, std::uint32_t bytes, Tick start)
{
    TransferResult res;
    if (src == dst)
        return res;

    ++packets;
    if (tracer && tracer->enabled())
        tracer->record(obs::TraceEvent::NocTransfer, src,
                       obs::Tracer::laneNet, start, 0,
                       (static_cast<std::uint64_t>(dst) << 32) | bytes);
    Tick t = start;

    auto crossbar = [&](UnitId port) {
        auto ser = static_cast<Tick>(intraTicksPerByte * bytes);
        Tick begin = portMeter[port].reserve(t, ser);
        // 0/1000 is exactly 0.0: uncontended hops skip the divide.
        const Tick wait = begin - t;
        portWait.sample(wait ? static_cast<double>(wait) / ticksPerNs
                             : 0.0);
        t = begin + intraLatency + ser;
        ++intraHops;
        energy.addIntraTransfer(bytes);
    };

    // Ring mode: traverse directed ring links between in-stack ports.
    // The stack router sits at local index 0.
    auto ring = [&](UnitId from, std::uint32_t toLocal) {
        std::uint32_t cur = topo.localIndex(from);
        UnitId base = from - cur; // first unit of this stack
        auto ser = static_cast<Tick>(intraTicksPerByte * bytes);
        while (cur != toLocal) {
            std::uint32_t fwd = (toLocal + unitsPerStack - cur)
                % unitsPerStack;
            bool clockwise = fwd <= unitsPerStack - fwd;
            std::uint32_t dir = clockwise ? 0 : 1;
            Tick begin =
                ringMeter[(base + cur) * 2 + dir].reserve(t, ser);
            const Tick wait = begin - t;
            portWait.sample(wait ? static_cast<double>(wait) / ticksPerNs
                                 : 0.0);
            t = begin + intraLatency + ser;
            ++intraHops;
            energy.addIntraTransfer(bytes);
            cur = clockwise ? (cur + 1) % unitsPerStack
                            : (cur + unitsPerStack - 1) % unitsPerStack;
        }
    };

    auto intraTraverse = [&](UnitId from, std::uint32_t toLocal,
                             UnitId toPort) {
        if (intraTopo == IntraTopology::Ring)
            ring(from, toLocal);
        else
            crossbar(toPort);
    };

    if (topo.sameStack(src, dst)) {
        // Straight intra-stack delivery.
        intraTraverse(src, topo.localIndex(dst), dst);
        res.latency = t - start;
        if (checkCtx && checkCtx->enabled())
            checkCtx->require(res.interHops == 0, "NoC packet ", src,
                              "->", dst, " is intra-stack but walked ",
                              res.interHops, " inter-stack hops");
        return res;
    }

    // Source stack: reach the stack router (local index 0).
    intraTraverse(src, 0, src);

    // XY route across the mesh; each directed link is a bandwidth
    // resource (store-and-forward per hop).
    StackId s = topo.stackOf(src);
    StackId d = topo.stackOf(dst);
    auto [sx, sy] = topo.stackCoord(s);
    auto [dx, dy] = topo.stackCoord(d);

    std::uint32_t x = sx, y = sy;
    StackId cur = s;
    const auto interSer = static_cast<Tick>(interTicksPerByte * bytes);
    auto hop = [&](std::uint32_t dir, StackId next) {
        const Tick ser = interSer;
        std::size_t li = linkIndex(cur, dir);
        Tick begin = linkMeter[li].reserve(t, ser);
        const Tick wait = begin - t;
        linkWait.sample(wait ? static_cast<double>(wait) / ticksPerNs
                             : 0.0);
        t = begin + interLatency + ser;
        if (linkFaultsOn && faults->linkFaulty(li)) {
            // Injected link fault: a fixed latency adder plus transient
            // drops. Each drop is repaired sender-side — an exponential
            // backoff timeout, then a retransmission that reserves the
            // link again (so retries contend for bandwidth like any
            // other packet). drawLinkDrops() bounds the drop run by the
            // retry budget, so delivery always completes.
            t += faults->linkExtraTicks();
            std::uint32_t drops = faults->drawLinkDrops();
            for (std::uint32_t a = 0; a < drops; ++a) {
                ++dropped;
                ++retries;
                t += faults->retryBackoffTicks(a);
                Tick rb = linkMeter[li].reserve(t, ser);
                t = rb + interLatency + ser + faults->linkExtraTicks();
                energy.addInterTransfer(bytes, 1);
            }
        }
        cur = next;
        ++res.interHops;
    };

    while (x != dx) {
        if (x < dx) {
            hop(0, cur + 1);
            ++x;
        } else {
            hop(1, cur - 1);
            --x;
        }
    }
    while (y != dy) {
        if (y < dy) {
            hop(2, cur + meshX);
            ++y;
        } else {
            hop(3, cur - meshX);
            --y;
        }
    }

    interHops += res.interHops;
    energy.addInterTransfer(bytes, res.interHops);

    if (checkCtx && checkCtx->enabled()) {
        // XY routing is minimal: the walked hop count must equal the
        // Manhattan distance between the two stacks.
        std::uint32_t expect = topo.interHops(src, dst);
        checkedHops += expect;
        checkCtx->require(res.interHops == expect, "NoC packet ", src,
                          "->", dst, " walked ", res.interHops,
                          " inter-stack hops; topology distance is ",
                          expect);
    }

    // Destination stack: from the router to the unit.
    UnitId dst_router = dst - topo.localIndex(dst);
    if (intraTopo == IntraTopology::Ring)
        ring(dst_router, topo.localIndex(dst));
    else
        crossbar(dst);

    res.latency = t - start;
    return res;
}

void
Network::regStats(obs::StatNode &node) const
{
    node.addCounter("interHops", &interHops);
    node.addCounter("intraTraversals", &intraHops);
    node.addCounter("packets", &packets);
    node.addCounter("dropped", &dropped);
    node.addCounter("retries", &retries);
    node.addDistribution("portWaitNs", &portWait);
    node.addDistribution("linkWaitNs", &linkWait);
}

void
Network::auditBandwidth(check::CheckContext &ctx) const
{
    for (std::size_t i = 0; i < linkMeter.size(); ++i)
        check::checkMeter(ctx, "net link", i, linkMeter[i]);
    for (std::size_t i = 0; i < portMeter.size(); ++i)
        check::checkMeter(ctx, "net port", i, portMeter[i]);
    for (std::size_t i = 0; i < ringMeter.size(); ++i)
        check::checkMeter(ctx, "net ring", i, ringMeter[i]);
}

void
Network::resetState()
{
    for (auto &m : linkMeter)
        m.reset();
    for (auto &m : portMeter)
        m.reset();
    for (auto &m : ringMeter)
        m.reset();
}

void
Network::discardBefore(Tick tb)
{
    for (auto &m : linkMeter)
        m.discardBefore(tb);
    for (auto &m : portMeter)
        m.discardBefore(tb);
    for (auto &m : ringMeter)
        m.discardBefore(tb);
}

} // namespace abndp
