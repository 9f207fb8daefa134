/**
 * @file
 * Slow, obviously-correct reference models of the optimized core data
 * structures (the second leg of the correctness harness; see
 * docs/TESTING.md). Each Ref* class re-implements the *contract* of
 * its production counterpart with the most transparent data layout
 * available — vectors of vectors instead of flat arrays, a std::map
 * instead of paged buckets, linear scans instead of open addressing,
 * eager clears instead of generation stamps — so that a divergence
 * under the seeded operation generators (tests/test_differential.cc)
 * indicts the optimization, not the oracle.
 *
 * Where the production structure consumes randomness (replacement
 * victims, insertion bypass), the reference draws from its own Rng
 * seeded identically and in the same order, so both sides see the same
 * stream and outputs must match bit-exactly.
 */

#ifndef ABNDP_CHECK_REF_MODELS_HH
#define ABNDP_CHECK_REF_MODELS_HH

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "cache/camp_mapping.hh"
#include "common/config.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "fault/fault_model.hh"
#include "net/topology.hh"
#include "sched/lb/data_hotness.hh"
#include "tasking/task.hh"
#include "workloads/graph.hh"

namespace abndp
{
namespace check
{

/** Reference set-associative cache: vector-of-vectors, no mask trick. */
class RefSetAssocCache
{
  public:
    RefSetAssocCache(std::uint64_t numSets, std::uint32_t assoc,
                     ReplPolicy repl, std::uint64_t seed = Rng::defaultSeed,
                     bool hashedIndex = true)
        : assoc(assoc), repl(repl), hashed(hashedIndex), rng(seed),
          sets(numSets)
    {
        for (auto &set : sets)
            set.assign(assoc, Way{invalidAddr, 0});
    }

    bool
    access(Addr blockAddr)
    {
        Way *way = find(blockAddr);
        if (way) {
            if (repl == ReplPolicy::Lru)
                way->stamp = ++tick;
            ++nHits;
            return true;
        }
        ++nMisses;
        return false;
    }

    bool contains(Addr blockAddr) const
    {
        return const_cast<RefSetAssocCache *>(this)->find(blockAddr)
            != nullptr;
    }

    Addr
    insert(Addr blockAddr)
    {
        if (Way *way = find(blockAddr)) {
            if (repl == ReplPolicy::Lru)
                way->stamp = ++tick;
            return invalidAddr;
        }
        auto &set = sets[setIndex(blockAddr)];
        // Prefer an invalid way; otherwise ask the policy for a victim.
        std::uint32_t victim = assoc;
        for (std::uint32_t w = 0; w < assoc; ++w) {
            if (set[w].block == invalidAddr) {
                victim = w;
                break;
            }
        }
        if (victim == assoc) {
            if (repl == ReplPolicy::Random) {
                victim = static_cast<std::uint32_t>(rng.below(assoc));
            } else {
                victim = 0;
                for (std::uint32_t w = 1; w < assoc; ++w)
                    if (set[w].stamp < set[victim].stamp)
                        victim = w;
            }
        }
        Addr evicted = set[victim].block;
        if (evicted != invalidAddr)
            ++nEvicts;
        set[victim] = Way{blockAddr, ++tick};
        ++nInserts;
        return evicted;
    }

    bool
    invalidate(Addr blockAddr)
    {
        if (Way *way = find(blockAddr)) {
            way->block = invalidAddr;
            return true;
        }
        return false;
    }

    void
    invalidateAll()
    {
        for (auto &set : sets)
            for (Way &way : set)
                way.block = invalidAddr;
    }

    std::uint64_t hits() const { return nHits; }
    std::uint64_t misses() const { return nMisses; }
    std::uint64_t insertions() const { return nInserts; }
    std::uint64_t evictions() const { return nEvicts; }

    std::uint64_t
    occupancy() const
    {
        std::uint64_t n = 0;
        for (const auto &set : sets)
            for (const Way &way : set)
                n += way.block != invalidAddr ? 1 : 0;
        return n;
    }

  private:
    struct Way
    {
        Addr block;
        std::uint64_t stamp;
    };

    std::size_t
    setIndex(Addr blockAddr) const
    {
        std::uint64_t block = blockNumber(blockAddr);
        std::uint64_t h = hashed ? mix64(block) : block;
        return static_cast<std::size_t>(h % sets.size());
    }

    Way *
    find(Addr blockAddr)
    {
        for (Way &way : sets[setIndex(blockAddr)])
            if (way.block == blockAddr)
                return &way;
        return nullptr;
    }

    std::uint32_t assoc;
    ReplPolicy repl;
    bool hashed;
    Rng rng;
    std::uint64_t tick = 0;
    std::vector<std::vector<Way>> sets;
    std::uint64_t nHits = 0;
    std::uint64_t nMisses = 0;
    std::uint64_t nInserts = 0;
    std::uint64_t nEvicts = 0;
};

/**
 * Reference Traveller Cache: eager bulk invalidation (clear every set)
 * instead of generation stamps; same probabilistic-insertion contract
 * and Rng stream as the production cache (bypass draw first, victim
 * draw only on a full set under Random replacement).
 */
class RefTravellerCache
{
  public:
    /** @param seed the *raw* system seed, mixed exactly like the real
     *  cache so both sides share one stream. */
    RefTravellerCache(std::uint64_t nSets, std::uint32_t assoc,
                      ReplPolicy repl, double bypassProb,
                      std::uint64_t seed)
        : assoc(assoc), repl(repl), bypassProb(bypassProb),
          rng(mix64(seed ^ 0x7261764c6c657243ULL)), sets(nSets)
    {
    }

    bool
    lookup(Addr blockAddr)
    {
        for (Way &way : sets[setOf(blockAddr)]) {
            if (way.block == blockAddr) {
                if (repl == ReplPolicy::Lru)
                    way.stamp = ++tick;
                ++nHits;
                return true;
            }
        }
        ++nMisses;
        return false;
    }

    bool
    contains(Addr blockAddr) const
    {
        for (const Way &way : sets[setOf(blockAddr)])
            if (way.block == blockAddr)
                return true;
        return false;
    }

    bool
    maybeInsert(Addr blockAddr)
    {
        if (rng.chance(bypassProb)) {
            ++nBypasses;
            return false;
        }
        auto &set = sets[setOf(blockAddr)];
        for (Way &way : set) {
            if (way.block == blockAddr) {
                if (repl == ReplPolicy::Lru)
                    way.stamp = ++tick;
                return true; // raced insert of an already-present block
            }
        }
        if (set.size() < assoc) {
            set.push_back(Way{blockAddr, ++tick});
        } else {
            std::uint32_t victim = 0;
            if (repl == ReplPolicy::Random) {
                victim = static_cast<std::uint32_t>(rng.below(assoc));
            } else {
                for (std::uint32_t w = 1; w < assoc; ++w)
                    if (set[w].stamp < set[victim].stamp)
                        victim = w;
            }
            set[victim] = Way{blockAddr, ++tick};
            ++nEvicts;
        }
        ++nInserts;
        return true;
    }

    /** Erase one block in place (surviving ways keep their order). */
    bool
    invalidate(Addr blockAddr)
    {
        auto &set = sets[setOf(blockAddr)];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (it->block == blockAddr) {
                set.erase(it);
                ++nEvicts;
                return true;
            }
        }
        return false;
    }

    /** Erase every block @p pred matches, in place, in every set. */
    template <typename Pred>
    std::uint64_t
    invalidateMatching(Pred pred)
    {
        std::uint64_t dropped = 0;
        for (auto &set : sets)
            dropped += std::erase_if(
                set, [&pred](const Way &way) { return pred(way.block); });
        nEvicts += dropped;
        return dropped;
    }

    void
    bulkInvalidate()
    {
        for (auto &set : sets)
            set.clear();
    }

    std::uint64_t hits() const { return nHits; }
    std::uint64_t misses() const { return nMisses; }
    std::uint64_t insertions() const { return nInserts; }
    std::uint64_t evictions() const { return nEvicts; }
    std::uint64_t bypasses() const { return nBypasses; }

    std::uint64_t
    occupancy() const
    {
        std::uint64_t n = 0;
        for (const auto &set : sets)
            n += set.size();
        return n;
    }

  private:
    struct Way
    {
        Addr block;
        std::uint64_t stamp;
    };

    /** Low-bit index, like the real Traveller (DESIGN.md). */
    std::size_t
    setOf(Addr blockAddr) const
    {
        return static_cast<std::size_t>(blockNumber(blockAddr)
                                        % sets.size());
    }

    std::uint32_t assoc;
    ReplPolicy repl;
    double bypassProb;
    Rng rng;
    std::uint64_t tick = 0;
    std::vector<std::vector<Way>> sets;
    std::uint64_t nHits = 0;
    std::uint64_t nMisses = 0;
    std::uint64_t nInserts = 0;
    std::uint64_t nEvicts = 0;
    std::uint64_t nBypasses = 0;
};

/**
 * Reference bandwidth meter: one std::map entry per touched bucket
 * instead of paged flat storage with a last-page cache.
 */
class RefBandwidthMeter
{
  public:
    explicit RefBandwidthMeter(Tick bucketTicks = 256 * ticksPerNs)
        : width(bucketTicks)
    {
        abndp_assert(width > 0);
    }

    Tick
    reserve(Tick t, Tick service)
    {
        if (service == 0)
            return t;
        std::uint64_t b = t / width;
        while (fill[b] >= width)
            ++b;
        Tick begin = b * width + fill[b];
        if (begin < t)
            begin = t;
        Tick remaining = service;
        while (remaining > 0) {
            Tick free = width - fill[b];
            Tick take = remaining < free ? remaining : free;
            fill[b] += take;
            remaining -= take;
            ++b;
        }
        return begin;
    }

    void reset() { fill.clear(); }

    std::size_t
    bucketsInUse() const
    {
        std::size_t n = 0;
        for (const auto &[b, f] : fill)
            n += f > 0 ? 1 : 0;
        return n;
    }

    Tick bucketWidth() const { return width; }

    /** Largest fill at or after bucket @p from (0: the whole meter). */
    Tick
    maxBucketFill(std::uint64_t from = 0) const
    {
        Tick mx = 0;
        for (auto it = fill.lower_bound(from); it != fill.end(); ++it)
            mx = it->second > mx ? it->second : mx;
        return mx;
    }

  private:
    Tick width;
    std::map<std::uint64_t, Tick> fill;
};

/**
 * Reference interconnect: re-implements Network::transfer's timing with
 * the XY route walked by coordinate arithmetic on every packet instead
 * of read from a route table, one RefBandwidthMeter per mesh link,
 * crossbar port and ring link, and the fault model queried on every
 * hop (no hoisting). The fault calls come in the same order, so a twin
 * FaultModel built from the same config draws the same drops. Energy is
 * out of scope; latencies, hop counts, counters and the wait sums must
 * match packet-for-packet.
 */
class RefNetwork
{
  public:
    RefNetwork(const SystemConfig &cfg, const Topology &topo,
               FaultModel *faults)
        : topo(topo), faults(faults), meshX(cfg.meshX),
          unitsPerStack(cfg.unitsPerStack),
          ring(cfg.net.intraTopology == IntraTopology::Ring),
          intraLatency(static_cast<Tick>(cfg.net.intraHopNs * ticksPerNs)),
          interLatency(static_cast<Tick>(cfg.net.interHopNs * ticksPerNs)),
          intraTicksPerByte(8.0 * 1000.0
                            / (cfg.net.intraLinkBits * cfg.net.intraGHz)),
          interTicksPerByte(1000.0 / cfg.net.interGBs),
          linkMeter(topo.numStacks() * 4),
          portMeter(topo.numUnits()),
          ringMeter(topo.numUnits() * 2)
    {
    }

    /** @return the packet's latency and its inter-stack hops. */
    std::pair<Tick, std::uint32_t>
    transfer(UnitId src, UnitId dst, std::uint32_t bytes, Tick start)
    {
        if (src == dst)
            return {0, 0};
        ++nPackets;
        Tick t = start;
        const auto ser = static_cast<Tick>(intraTicksPerByte * bytes);
        if (topo.sameStack(src, dst)) {
            inStack(src, topo.localIndex(dst), dst, ser, t);
            return {t - start, 0};
        }
        inStack(src, 0, src, ser, t);

        const auto interSer = static_cast<Tick>(interTicksPerByte * bytes);
        auto [x, y] = topo.stackCoord(topo.stackOf(src));
        const auto [dx, dy] = topo.stackCoord(topo.stackOf(dst));
        std::uint32_t hops = 0;
        while (x != dx || y != dy) {
            // Stack (x, y) is x + y * meshX; x first, then y. Directions:
            // 0 east (+x), 1 west, 2 south (+y), 3 north.
            const std::size_t here = x + static_cast<std::size_t>(y) * meshX;
            std::uint32_t dir;
            if (x != dx) {
                dir = x < dx ? 0 : 1;
                x = x < dx ? x + 1 : x - 1;
            } else {
                dir = y < dy ? 2 : 3;
                y = y < dy ? y + 1 : y - 1;
            }
            crossLink(here * 4 + dir, interSer, t);
            ++hops;
        }
        nInterHops += hops;

        const UnitId router = dst - topo.localIndex(dst);
        inStack(router, topo.localIndex(dst), dst, ser, t);
        return {t - start, hops};
    }

    std::uint64_t packets() const { return nPackets; }
    std::uint64_t interHops() const { return nInterHops; }
    std::uint64_t intraTraversals() const { return nIntraHops; }
    std::uint64_t dropped() const { return nDropped; }
    std::uint64_t retries() const { return nRetries; }
    /** Sums of the sampled queueing waits (ns), in sampling order. */
    double portWaitSum() const { return portWaitNs; }
    double linkWaitSum() const { return linkWaitNs; }

  private:
    /**
     * From @p from to local index @p toLocal of the same stack (0 is
     * the stack router): one crossbar traversal booked on @p port (the
     * source's on the way out, the destination's on the way in), or
     * ring links the short way round, clockwise on a tie.
     */
    void
    inStack(UnitId from, std::uint32_t toLocal, UnitId port, Tick ser,
            Tick &t)
    {
        if (!ring) {
            portHop(portMeter[port], ser, t);
            return;
        }
        const UnitId first = from - topo.localIndex(from);
        std::uint32_t cur = topo.localIndex(from);
        while (cur != toLocal) {
            const std::uint32_t fwd =
                (toLocal + unitsPerStack - cur) % unitsPerStack;
            const bool clockwise = fwd <= unitsPerStack - fwd;
            portHop(ringMeter[(first + cur) * 2 + (clockwise ? 0 : 1)],
                    ser, t);
            cur = (cur + (clockwise ? 1 : unitsPerStack - 1))
                % unitsPerStack;
        }
    }

    void
    portHop(RefBandwidthMeter &m, Tick ser, Tick &t)
    {
        const Tick begin = m.reserve(t, ser);
        portWaitNs += static_cast<double>(begin - t) / ticksPerNs;
        t = begin + intraLatency + ser;
        ++nIntraHops;
    }

    /** One store-and-forward hop over mesh link @p li, retries too. */
    void
    crossLink(std::size_t li, Tick ser, Tick &t)
    {
        const Tick begin = linkMeter[li].reserve(t, ser);
        linkWaitNs += static_cast<double>(begin - t) / ticksPerNs;
        t = begin + interLatency + ser;
        if (!faults || !faults->linkFaulty(li))
            return;
        t += faults->linkExtraTicks();
        const std::uint32_t drops = faults->drawLinkDrops();
        for (std::uint32_t a = 0; a < drops; ++a) {
            ++nDropped;
            ++nRetries;
            t += faults->retryBackoffTicks(a);
            t = linkMeter[li].reserve(t, ser) + interLatency + ser
                + faults->linkExtraTicks();
        }
    }

    const Topology &topo;
    FaultModel *faults;
    std::uint32_t meshX;
    std::uint32_t unitsPerStack;
    bool ring;
    Tick intraLatency;
    Tick interLatency;
    double intraTicksPerByte;
    double interTicksPerByte;
    std::vector<RefBandwidthMeter> linkMeter;
    std::vector<RefBandwidthMeter> portMeter;
    std::vector<RefBandwidthMeter> ringMeter;
    std::uint64_t nPackets = 0;
    std::uint64_t nInterHops = 0;
    std::uint64_t nIntraHops = 0;
    std::uint64_t nDropped = 0;
    std::uint64_t nRetries = 0;
    double portWaitNs = 0.0;
    double linkWaitNs = 0.0;
};

/**
 * Reference DDR backend: re-implements DdrBackend's bank-state timing
 * (src/mem/ddr_backend.hh) with the most transparent machinery
 * available — plain %/ / address decode instead of Pow2Split,
 * RefBandwidthMeter (std::map buckets) for both the per-bank meters
 * and the channel ACT-window meter, and straight-line state updates.
 * Fault injection is out of scope (drive the production side with
 * faults == nullptr); everything else — refresh catch-up, page
 * policies, tRAS/tWR recovery with the out-of-order cap, and the
 * quarter-window tFAW accounting — must match latency-for-latency.
 */
class RefDdrBackend
{
  public:
    explicit RefDdrBackend(const SystemConfig &cfg)
        : dram(cfg.dram), bytesPerUnit(cfg.memBytesPerUnit),
          tCas(static_cast<Tick>(dram.tCasNs * ticksPerNs)),
          tRcd(static_cast<Tick>(dram.tRcdNs * ticksPerNs)),
          tRp(static_cast<Tick>(dram.tRpNs * ticksPerNs)),
          tRas(static_cast<Tick>(dram.tRasNs * ticksPerNs)),
          tWr(static_cast<Tick>(dram.tWrNs * ticksPerNs)),
          tRefi(static_cast<Tick>(dram.tRefiNs * ticksPerNs)),
          tRfc(static_cast<Tick>(dram.tRfcNs * ticksPerNs)),
          ticksPerByte(8.0 * 1000.0
                       / (dram.busBits * 2.0 * dram.busGHz)),
          actQuarter(
              (static_cast<Tick>(dram.tFawNs * ticksPerNs) + 3) / 4),
          actMeter(std::max<Tick>(4 * actQuarter, 1)),
          banks(dram.banks)
    {
        for (std::size_t b = 0; b < banks.size(); ++b)
            banks[b].nextRefresh = tRefi * (b + 1) / banks.size();
    }

    Tick
    access(Addr addr, std::uint32_t bytes, bool isWrite, Tick start)
    {
        auto [row, bankIdx] = decode(addr);
        Bank &bank = banks[bankIdx];

        if (dram.refreshEnabled && bank.nextRefresh <= start) {
            std::uint32_t catchup = 0;
            while (bank.nextRefresh <= start
                   && catchup < dram.refreshCatchupMax) {
                bank.meter.reserve(bank.nextRefresh, tRfc);
                bank.nextRefresh += tRefi;
                ++nRefreshes;
                ++catchup;
            }
            if (bank.nextRefresh <= start)
                bank.nextRefresh = start + tRefi;
            bank.rowOpen = false;
            bank.openRow = ~0ull;
        }

        Tick core;
        Tick extra = 0;
        std::uint32_t keepScore;
        bool row_miss = !(bank.rowOpen && bank.openRow == row);
        if (row_miss) {
            ++nRowMisses;
            Tick pre;
            Tick recovery;
            keepScore = bank.openScore; // pre-miss score decides
            if (bank.rowOpen) {
                pre = tRp;
                Tick r1 = bank.lastActAt + tRas;
                Tick r2 = bank.writeEnd + tWr;
                recovery = std::max(r1 > start ? r1 - start : 0,
                                    r2 > start ? r2 - start : 0);
                if (bank.openScore > 0)
                    --bank.openScore;
            } else {
                pre = 0;
                recovery = bank.bankReadyAt > start
                    ? bank.bankReadyAt - start : 0;
                if (row == bank.lastClosedRow) {
                    if (bank.openScore < 3)
                        ++bank.openScore; // wasted close: credit
                } else if (bank.openScore > 0) {
                    --bank.openScore;
                }
            }
            recovery = std::min(recovery, tRas + tWr + tRp);

            Tick actReady = start + recovery + pre;
            Tick actAt = actReady;
            if (actQuarter > 0)
                actAt = actMeter.reserve(actReady, actQuarter);
            if (actAt > actReady)
                ++nActStalls;
            extra = recovery + (actAt - actReady);
            bank.lastActAt = std::max(bank.lastActAt, actAt);
            bank.openRow = row;
            bank.rowOpen = true;
            core = pre + tRcd + tCas;
        } else {
            core = tCas;
            if (bank.openScore < 3)
                ++bank.openScore; // post-hit score decides
            keepScore = bank.openScore;
        }

        auto burst = static_cast<Tick>(ticksPerByte * bytes);
        Tick begin = bank.meter.reserve(start, core + burst);
        Tick queue = begin - start;
        Tick end = begin + core + burst + extra;

        if (isWrite) {
            ++nWrites;
            bank.writeEnd = std::max(bank.writeEnd, end);
        } else {
            ++nReads;
        }

        bool leave_open = dram.pagePolicy == PagePolicy::Open
            || (dram.pagePolicy == PagePolicy::Adaptive
                && keepScore >= 2);
        if (!leave_open) {
            bank.lastClosedRow = bank.openRow;
            bank.rowOpen = false;
            bank.openRow = ~0ull;
            bank.bankReadyAt = std::max(
                bank.bankReadyAt, end + (isWrite ? tWr : 0) + tRp);
        }
        return queue + core + burst + extra;
    }

    std::uint64_t reads() const { return nReads; }
    std::uint64_t writes() const { return nWrites; }
    std::uint64_t rowMisses() const { return nRowMisses; }
    std::uint64_t refreshes() const { return nRefreshes; }
    std::uint64_t actStalls() const { return nActStalls; }

    std::uint64_t
    rowHits() const
    {
        return nReads + nWrites - nRowMisses;
    }

    /** Largest ACT-window bucket fill (tFAW audit cross-check). */
    Tick actWindowPeak() const { return actMeter.maxBucketFill(); }
    Tick actWindowWidth() const { return actMeter.bucketWidth(); }

  private:
    struct Bank
    {
        RefBandwidthMeter meter;
        std::uint64_t openRow = ~0ull;
        bool rowOpen = false;
        Tick nextRefresh = 0;
        Tick lastActAt = 0;
        Tick writeEnd = 0;
        Tick bankReadyAt = 0;
        std::uint32_t openScore = 2;
        std::uint64_t lastClosedRow = ~0ull;
    };

    /** Naive {row, bank} decode; mirrors DramAddrMap::decode. */
    std::pair<std::uint64_t, std::uint32_t>
    decode(Addr addr) const
    {
        std::uint64_t row;
        std::uint64_t bank;
        switch (dram.addrMap) {
          case DramAddrMapKind::RowColumnBank: {
            std::uint64_t x = addr / dram.burstBytes;
            bank = x % dram.banks;
            row = (x / dram.banks)
                / (dram.rowBytes / dram.burstBytes);
            break;
          }
          case DramAddrMapKind::BankRowColumn: {
            std::uint64_t off = addr % bytesPerUnit;
            std::uint64_t slice = bytesPerUnit / dram.banks;
            bank = off / slice;
            row = (off % slice) / dram.rowBytes;
            break;
          }
          case DramAddrMapKind::RowBankColumn:
          default: {
            std::uint64_t x = addr / dram.rowBytes;
            bank = x % dram.banks;
            row = x / dram.banks;
            break;
          }
        }
        return {row, static_cast<std::uint32_t>(bank)};
    }

    DramConfig dram;
    std::uint64_t bytesPerUnit;
    Tick tCas;
    Tick tRcd;
    Tick tRp;
    Tick tRas;
    Tick tWr;
    Tick tRefi;
    Tick tRfc;
    double ticksPerByte;
    Tick actQuarter;
    RefBandwidthMeter actMeter;
    std::vector<Bank> banks;
    std::uint64_t nReads = 0;
    std::uint64_t nWrites = 0;
    std::uint64_t nRowMisses = 0;
    std::uint64_t nRefreshes = 0;
    std::uint64_t nActStalls = 0;
};

/**
 * Reference prefetch buffer: a plain deque scanned linearly instead of
 * a ring plus an open-addressed index with backward-shift deletion.
 */
class RefPrefetchBuffer
{
  public:
    explicit RefPrefetchBuffer(std::uint64_t capacityBlocks)
        : capacity(capacityBlocks)
    {
        abndp_assert(capacity > 0);
    }

    void
    fill(Addr blockAddr, Tick readyTick)
    {
        for (Entry &e : fifo) {
            if (e.block == blockAddr) {
                if (readyTick < e.ready)
                    e.ready = readyTick;
                return;
            }
        }
        if (fifo.size() == capacity) {
            fifo.pop_front();
            ++nEvicts;
        }
        fifo.push_back(Entry{blockAddr, readyTick});
        ++nFills;
    }

    bool
    peek(Addr blockAddr) const
    {
        for (const Entry &e : fifo)
            if (e.block == blockAddr)
                return true;
        return false;
    }

    Tick
    lookup(Addr blockAddr, Tick now)
    {
        for (const Entry &e : fifo) {
            if (e.block == blockAddr) {
                if (e.ready <= now)
                    ++nHits;
                else
                    ++nLateHits;
                return e.ready;
            }
        }
        ++nMisses;
        return tickNever;
    }

    void invalidateAll() { fifo.clear(); }

    std::uint64_t hits() const { return nHits; }
    std::uint64_t lateHits() const { return nLateHits; }
    std::uint64_t misses() const { return nMisses; }
    std::uint64_t fills() const { return nFills; }
    std::uint64_t evictions() const { return nEvicts; }
    std::size_t size() const { return fifo.size(); }

  private:
    struct Entry
    {
        Addr block;
        Tick ready;
    };

    std::uint64_t capacity;
    std::deque<Entry> fifo;
    std::uint64_t nHits = 0;
    std::uint64_t nLateHits = 0;
    std::uint64_t nMisses = 0;
    std::uint64_t nFills = 0;
    std::uint64_t nEvicts = 0;
};

/**
 * Reference event queue: an unsorted vector searched for the earliest
 * (tick, seq) pair at every step, with std::function callbacks — no
 * binary heap, no inline-slot arena. Mirrors the EventQueue contract:
 * ties broken by insertion order, no scheduling into the past,
 * clearPending() drops events but keeps the clock.
 */
class RefEventQueue
{
  public:
    Tick now() const { return curTick; }
    std::size_t size() const { return events.size(); }
    bool empty() const { return events.empty(); }
    std::uint64_t executed() const { return numExecuted; }

    void
    schedule(Tick when, std::function<void()> cb)
    {
        abndp_assert(when >= curTick, "scheduling into the past: ", when,
                     " < ", curTick);
        events.push_back(Event{when, nextSeq++, std::move(cb)});
    }

    void
    scheduleIn(Tick delta, std::function<void()> cb)
    {
        schedule(curTick + delta, std::move(cb));
    }

    bool
    runOne()
    {
        if (events.empty())
            return false;
        std::size_t best = 0;
        for (std::size_t i = 1; i < events.size(); ++i) {
            if (events[i].when < events[best].when
                || (events[i].when == events[best].when
                    && events[i].seq < events[best].seq))
                best = i;
        }
        Event ev = std::move(events[best]);
        events.erase(events.begin()
                     + static_cast<std::ptrdiff_t>(best));
        curTick = ev.when;
        ++numExecuted;
        ev.cb();
        return true;
    }

    void
    runUntil(Tick limit)
    {
        while (!events.empty()) {
            std::size_t best = 0;
            for (std::size_t i = 1; i < events.size(); ++i)
                if (events[i].when < events[best].when
                    || (events[i].when == events[best].when
                        && events[i].seq < events[best].seq))
                    best = i;
            if (events[best].when > limit)
                break;
            runOne();
        }
        if (curTick < limit)
            curTick = limit;
    }

    void clearPending() { events.clear(); }

    void
    reset()
    {
        events.clear();
        curTick = 0;
        nextSeq = 0;
        numExecuted = 0;
    }

  private:
    struct Event
    {
        Tick when;
        std::uint64_t seq;
        std::function<void()> cb;
    };

    std::vector<Event> events;
    Tick curTick = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t numExecuted = 0;
};

/**
 * Reference latency accumulator: quantiles from a full std::sort over
 * the stored samples instead of nth_element on a scratch copy. Same
 * nearest-rank contract as serve::LatencyRecorder — sorted[ceil(q*n)]
 * (1-based) — so percentiles must match bit-exactly over any stream.
 */
class RefLatencyRecorder
{
  public:
    explicit RefLatencyRecorder(Tick sloTicks = 0) : slo(sloTicks) {}

    void
    record(Tick latency)
    {
        lat.push_back(latency);
        sum += latency;
        if (slo > 0 && latency > slo)
            ++nSloMisses;
    }

    std::uint64_t samples() const { return lat.size(); }
    std::uint64_t sloMisses() const { return nSloMisses; }

    double
    meanTicks() const
    {
        return lat.empty() ? 0.0
            : static_cast<double>(sum) / static_cast<double>(lat.size());
    }

    Tick
    percentile(double q) const
    {
        abndp_assert(q > 0.0 && q <= 1.0);
        if (lat.empty())
            return 0;
        std::vector<Tick> sorted = lat;
        std::sort(sorted.begin(), sorted.end());
        auto rank = static_cast<std::uint64_t>(
            std::ceil(q * static_cast<double>(sorted.size())));
        rank = std::max<std::uint64_t>(
            1, std::min<std::uint64_t>(rank, sorted.size()));
        return sorted[rank - 1];
    }

  private:
    std::vector<Tick> lat;
    Tick slo;
    std::uint64_t nSloMisses = 0;
    std::uint64_t sum = 0;
};

/**
 * Reference Zipfian sampler: the same sequentially-accumulated CDF
 * table as serve::ZipfianSampler (bit-identical construction order),
 * inverted by a linear scan instead of binary search. Identical
 * uniform draws must yield identical keys, bit for bit.
 */
class RefZipfSampler
{
  public:
    RefZipfSampler(std::uint64_t n, double s)
    {
        abndp_assert(n > 0);
        cdf.resize(n);
        double total = 0.0;
        for (std::uint64_t k = 0; k < n; ++k) {
            total += std::pow(static_cast<double>(k + 1), -s);
            cdf[k] = total;
        }
        for (std::uint64_t k = 0; k < n; ++k)
            cdf[k] /= total;
        cdf[n - 1] = 1.0;
    }

    std::uint64_t
    keyFor(double u) const
    {
        // Linear scan with the same predicate upper_bound uses: the
        // first key whose cumulative probability exceeds u.
        for (std::uint64_t k = 0; k < cdf.size(); ++k)
            if (cdf[k] > u)
                return k;
        return cdf.size() - 1;
    }

    std::uint64_t operator()(Rng &rng) const { return keyFor(rng.uniform()); }

    double
    probabilityOf(std::uint64_t k) const
    {
        abndp_assert(k < cdf.size());
        return k == 0 ? cdf[0] : cdf[k] - cdf[k - 1];
    }

  private:
    std::vector<double> cdf;
};

/**
 * Reference hot-block tracker: one std::map of live entries per home
 * unit instead of DataHotness's flat slot banks. Exploits the bank
 * invariant that zero-count slots never carry a block, so "live
 * entries, at most K per home" is the whole state; lossy-counting
 * charges the minimum by an explicit full scan with the same
 * (count, block) tie-break, and topK() sorts a copy with std::sort
 * instead of insertion into a running vector.
 */
class RefDataHotness
{
  public:
    RefDataHotness(std::uint32_t num_units, std::uint32_t k,
                   std::uint32_t decay_shift)
        : k(k), decayShift(decay_shift), banks(num_units)
    {
        abndp_assert(k > 0);
    }

    void
    record(UnitId home, Addr block, UnitId requester)
    {
        auto &bank = banks[home];
        auto it = bank.find(block);
        if (it != bank.end()) {
            ++it->second.cnt;
            vote(it->second, requester);
            return;
        }
        if (bank.size() < k) {
            bank.emplace(block, Entry{1, requester, 1});
            return;
        }
        // Lossy counting: charge the miss to the (count, block)-minimal
        // live entry; its slot turns over once it drains to zero.
        auto min_it = bank.begin();
        for (auto e = std::next(bank.begin()); e != bank.end(); ++e) {
            if (e->second.cnt < min_it->second.cnt
                || (e->second.cnt == min_it->second.cnt
                    && e->first < min_it->first))
                min_it = e;
        }
        if (--min_it->second.cnt == 0) {
            bank.erase(min_it);
            bank.emplace(block, Entry{1, requester, 1});
        }
    }

    void
    decayAll()
    {
        for (auto &bank : banks) {
            for (auto it = bank.begin(); it != bank.end();) {
                it->second.cnt >>= decayShift;
                it = it->second.cnt == 0 ? bank.erase(it)
                                         : std::next(it);
            }
        }
    }

    std::vector<HotEntry>
    topK(UnitId home) const
    {
        std::vector<HotEntry> out;
        for (const auto &[block, e] : banks[home])
            out.push_back(HotEntry{block, e.cnt, e.reqId, e.reqCnt});
        std::sort(out.begin(), out.end(),
                  [](const HotEntry &a, const HotEntry &b) {
                      return a.cnt != b.cnt ? a.cnt > b.cnt
                                            : a.block < b.block;
                  });
        return out;
    }

    std::uint64_t
    totalCount(UnitId home) const
    {
        std::uint64_t sum = 0;
        for (const auto &[block, e] : banks[home])
            sum += e.cnt;
        return sum;
    }

    void erase(UnitId home, Addr block) { banks[home].erase(block); }

  private:
    struct Entry
    {
        std::uint64_t cnt;
        UnitId reqId;
        std::uint64_t reqCnt;
    };

    static void
    vote(Entry &e, UnitId requester)
    {
        if (e.reqCnt == 0) {
            e.reqId = requester;
            e.reqCnt = 1;
        } else if (e.reqId == requester) {
            ++e.reqCnt;
        } else {
            --e.reqCnt;
        }
    }

    std::uint32_t k;
    std::uint32_t decayShift;
    std::vector<std::map<Addr, Entry>> banks;
};

/**
 * Reference re-homing overlay: an ordered std::map instead of the
 * production unordered_map — same point-query contract, so every
 * resolve()/set()/entries() answer must match exactly.
 */
class RefHomeIndirection
{
  public:
    bool active() const { return !map.empty(); }

    UnitId
    resolve(Addr block, UnitId base_home) const
    {
        auto it = map.find(block);
        return it == map.end() ? base_home : it->second;
    }

    void
    set(Addr block, UnitId home, UnitId base_home)
    {
        if (home == base_home)
            map.erase(block);
        else
            map[block] = home;
    }

    std::size_t entries() const { return map.size(); }

    void clear() { map.clear(); }

  private:
    std::map<Addr, UnitId> map;
};

/**
 * Reference Eq.-1 scorer: Scheduler's hybrid placement (or, with
 * @p hybrid false, its lowest-distance placement) recomputed from
 * scratch at every decision. Each sampled address takes the minimum
 * over its candidates of stack-pair costs derived from the mesh
 * coordinates; the forward penalty multiplies the unit distance on the
 * fly; costload adds the creator's delta (one vector per viewer, zero
 * for a unit that never forwarded) to the snapshot of every unit and
 * divides by the speed factor and W_avg, with no cached rows. The sums
 * per unit keep the order Scheduler promises (costmem, then the
 * penalty, then B * costload), so score rows must match bit for bit.
 */
class RefHybridScorer
{
  public:
    RefHybridScorer(const SystemConfig &cfg, const Topology &topo,
                    const CampMapping &camps, const FaultModel *faults,
                    bool hybrid)
        : topo(topo), camps(camps), faults(faults), hybrid(hybrid),
          withCamps(hybrid && cfg.traveller.style != CacheStyle::None),
          exhaustive(!hybrid || cfg.sched.exhaustiveScoring),
          weightB(cfg.sched.hybridAlpha * topo.interCost()),
          forwardPenalty(cfg.sched.forwardPenaltyFrac),
          deadband(cfg.sched.costloadDeadband), n(topo.numUnits()),
          wTrue(n, 0.0), wSnap(n, 0.0), speed(n, 1.0),
          delta(n, std::vector<double>(n, 0.0))
    {
    }

    void onEnqueued(UnitId u, double load) { wTrue[u] += load; }

    void
    onDequeued(UnitId u, double load)
    {
        drain(u, load);
    }

    void
    onStolen(UnitId victim, UnitId thief, double load)
    {
        drain(victim, load);
        wTrue[thief] += load;
    }

    void
    onForwarded(UnitId from, UnitId to, double load)
    {
        drain(from, load);
        wTrue[to] += load;
        delta[from][from] -= load;
        delta[from][to] += load;
    }

    void
    exchangeSnapshot(Tick now)
    {
        wSnap = wTrue;
        if (faults && faults->anyInjector())
            for (UnitId u = 0; u < n; ++u)
                speed[u] = faults->speedFactor(u, now);
        double sum = 0.0;
        for (UnitId u = 0; u < n; ++u)
            sum += wSnap[u] / speed[u];
        wAvg = sum / n;
        if (!exhaustive) {
            idleHint.clear();
            for (UnitId u = 0; u < n; ++u)
                if (!masked() || faults->isLive(u))
                    idleHint.push_back(u);
            const std::size_t depth =
                std::min<std::size_t>(8, idleHint.size());
            std::partial_sort(idleHint.begin(), idleHint.begin() + depth,
                              idleHint.end(), [this](UnitId a, UnitId b) {
                                  return wSnap[a] < wSnap[b];
                              });
            idleHint.resize(depth);
        }
        for (auto &row : delta)
            std::fill(row.begin(), row.end(), 0.0);
    }

    UnitId
    choose(const Task &task, UnitId creator)
    {
        scoreCostMem(task);
        if (hybrid) {
            if (forwardPenalty > 0.0)
                for (UnitId u = 0; u < n; ++u)
                    score[u] +=
                        forwardPenalty * topo.distanceCost(creator, u);
            if (wAvg > 0.0) {
                for (UnitId u = 0; u < n; ++u) {
                    double w = u == creator
                        ? wTrue[u]
                        : wSnap[u] + delta[creator][u];
                    w /= speed[u];
                    double r = w / wAvg - 1.0;
                    r = r > deadband
                        ? r - deadband
                        : (r < -deadband ? r + deadband : 0.0);
                    score[u] += weightB * r;
                }
            }
        }
        UnitId best = exhaustive ? argminLive() : argminPruned(task, creator);
        return resolveTies(task, creator, best);
    }

    const std::vector<double> &scores() const { return score; }
    double trueW(UnitId u) const { return wTrue[u]; }
    double snapshotW(UnitId u) const { return wSnap[u]; }

  private:
    void
    drain(UnitId u, double load)
    {
        wTrue[u] -= load;
        if (wTrue[u] < 0.0)
            wTrue[u] = 0.0;
    }

    bool masked() const { return faults && faults->anyUnitDown(); }

    double
    stackCost(StackId from, StackId to, double d_intra) const
    {
        if (from == to)
            return d_intra;
        auto [x1, y1] = topo.stackCoord(to);
        auto [x2, y2] = topo.stackCoord(from);
        std::uint32_t hops = (x1 > x2 ? x1 - x2 : x2 - x1)
            + (y1 > y2 ? y1 - y2 : y2 - y1);
        return topo.interCost() * hops;
    }

    void
    scoreCostMem(const Task &task)
    {
        std::vector<Addr> addrs(task.hint.data.begin(),
                                task.hint.data.end());
        for (const auto &r : task.hint.ranges) {
            addrs.push_back(r.start);
            if (r.lines() > 2)
                addrs.push_back(r.start + r.bytes / 2);
            if (r.lines() > 1)
                addrs.push_back(r.start + r.bytes - 1);
        }
        score.assign(n, 0.0);
        if (addrs.empty())
            return;
        const std::size_t step =
            addrs.size() <= 64 ? 1 : (addrs.size() + 63) / 64;
        const double d_intra = topo.intraCost() * topo.meanIntraHops();
        std::vector<double> stackSum(topo.numStacks(), 0.0);
        std::vector<double> bonus(n, 0.0);
        std::uint32_t sampled = 0;
        for (std::size_t i = 0; i < addrs.size(); i += step, ++sampled) {
            CandidateList cl;
            if (withCamps) {
                camps.candidates(addrs[i], cl);
            } else {
                cl.loc[0] = camps.homeOf(addrs[i]);
                cl.n = 1;
            }
            for (StackId s = 0; s < topo.numStacks(); ++s) {
                double m = stackCost(topo.stackOf(cl.loc[0]), s, d_intra);
                for (std::uint32_t c = 1; c < cl.n; ++c) {
                    double v =
                        stackCost(topo.stackOf(cl.loc[c]), s, d_intra);
                    m = v < m ? v : m;
                }
                stackSum[s] += m;
            }
            for (std::uint32_t c = 0; c < cl.n; ++c)
                bonus[cl.loc[c]] += d_intra;
        }
        const double inv = 1.0 / sampled;
        for (UnitId u = 0; u < n; ++u)
            score[u] = (stackSum[topo.stackOf(u)] - bonus[u]) * inv;
    }

    UnitId
    argminLive() const
    {
        UnitId best = invalidUnit;
        for (UnitId u = 0; u < n; ++u) {
            if (masked() && !faults->isLive(u))
                continue;
            if (best == invalidUnit || score[u] < score[best])
                best = u;
        }
        return best;
    }

    UnitId
    argminPruned(const Task &task, UnitId creator) const
    {
        std::vector<UnitId> set{creator};
        if (task.mainHome < n)
            set.push_back(task.mainHome);
        const auto &data = task.hint.data;
        const std::size_t step =
            data.size() <= 16 ? 1 : (data.size() + 15) / 16;
        for (std::size_t i = 0; i < data.size(); i += step) {
            CandidateList cl;
            camps.candidates(data[i], cl);
            set.insert(set.end(), cl.loc.begin(), cl.loc.begin() + cl.n);
        }
        set.insert(set.end(), idleHint.begin(), idleHint.end());
        UnitId best = creator;
        for (UnitId u : set)
            if ((!masked() || faults->isLive(u)) && score[u] < score[best])
                best = u;
        return best;
    }

    UnitId
    resolveTies(const Task &task, UnitId creator, UnitId best) const
    {
        constexpr double eps = 1e-9;
        if ((!masked() || faults->isLive(creator))
            && score[creator] <= score[best] + eps)
            return creator;
        if (task.mainHome < n
            && (!masked() || faults->isLive(task.mainHome))
            && score[task.mainHome] <= score[best] + eps)
            return task.mainHome;
        return best;
    }

    const Topology &topo;
    const CampMapping &camps;
    const FaultModel *faults;
    bool hybrid;
    bool withCamps;
    bool exhaustive;
    double weightB;
    double forwardPenalty;
    double deadband;
    std::uint32_t n;
    std::vector<double> wTrue;
    std::vector<double> wSnap;
    std::vector<double> speed;
    std::vector<std::vector<double>> delta;
    double wAvg = 0.0;
    std::vector<UnitId> idleHint;
    std::vector<double> score;
};

/**
 * Reference CSR build by one sort of the whole edge list: mirror the
 * arcs if undirected, drop self-loops, sort and unique every
 * (src, dst) pair, then count the rows; the sorted pairs are already
 * the column array. Graph::fromEdges instead counts, scatters and
 * sorts each row, so Graph::row() and Graph::col() must equal @c row
 * and @c col exactly.
 */
struct RefCsr
{
    std::vector<std::uint64_t> row;
    std::vector<std::uint32_t> col;

    static RefCsr
    fromEdges(std::uint32_t numVertices, std::vector<Graph::Edge> edges,
              bool undirected)
    {
        if (undirected) {
            std::size_t n = edges.size();
            edges.reserve(n * 2);
            for (std::size_t i = 0; i < n; ++i)
                edges.emplace_back(edges[i].second, edges[i].first);
        }
        std::erase_if(edges, [](const Graph::Edge &e) {
            return e.first == e.second;
        });
        std::sort(edges.begin(), edges.end());
        edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

        RefCsr csr;
        csr.row.assign(std::size_t{numVertices} + 1, 0);
        for (const auto &[src, dst] : edges) {
            abndp_assert(src < numVertices && dst < numVertices,
                         "edge endpoint out of range");
            ++csr.row[std::size_t{src} + 1];
            csr.col.push_back(dst);
        }
        for (std::size_t v = 0; v < numVertices; ++v)
            csr.row[v + 1] += csr.row[v];
        return csr;
    }
};

} // namespace check
} // namespace abndp

#endif // ABNDP_CHECK_REF_MODELS_HH
