/**
 * @file
 * Reference-model differential testing (src/check/ref_models.hh):
 * seeded operation generators drive each optimized core structure in
 * lock-step against its slow, obviously-correct reference and compare
 * every return value and counter. >= 10k operations per pair.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cache/camp_mapping.hh"
#include "cache/prefetch_buffer.hh"
#include "cache/set_assoc_cache.hh"
#include "cache/traveller_cache.hh"
#include "check/ref_models.hh"
#include "common/config.hh"
#include "common/rng.hh"
#include "energy/energy.hh"
#include "fault/fault_model.hh"
#include "mem/address_map.hh"
#include "mem/ddr_backend.hh"
#include "net/network.hh"
#include "net/topology.hh"
#include "sched/lb/data_hotness.hh"
#include "sched/lb/home_indirection.hh"
#include "sched/scheduler.hh"
#include "serve/latency_recorder.hh"
#include "serve/zipf.hh"
#include "sim/bandwidth_meter.hh"
#include "sim/event_queue.hh"
#include "workloads/graph.hh"

namespace abndp
{

namespace
{

constexpr std::uint64_t kOps = 12000;

/** Block-aligned address in a small window (forces set conflicts). */
Addr
drawBlockAddr(Rng &gen, std::uint64_t blocks = 768)
{
    return gen.below(blocks) * cachelineBytes;
}

} // namespace

// ---- SetAssocCache vs RefSetAssocCache --------------------------------

struct CacheGeomCase
{
    const char *name;
    std::uint64_t sets;
    std::uint32_t assoc;
    ReplPolicy repl;
    bool hashed;
};

class SetAssocDifferential
    : public ::testing::TestWithParam<CacheGeomCase>
{
};

TEST_P(SetAssocDifferential, LockStepAgainstReference)
{
    const CacheGeomCase &g = GetParam();
    constexpr std::uint64_t seed = 0xd1ffu;
    SetAssocCache opt(g.sets, g.assoc, g.repl, seed, g.hashed);
    check::RefSetAssocCache ref(g.sets, g.assoc, g.repl, seed, g.hashed);

    Rng gen(0xa5a5a5a5u);
    for (std::uint64_t i = 0; i < kOps; ++i) {
        Addr a = drawBlockAddr(gen);
        switch (gen.below(8)) {
          case 0:
          case 1:
          case 2:
            ASSERT_EQ(opt.access(a), ref.access(a)) << "op " << i;
            break;
          case 3:
          case 4:
          case 5:
            ASSERT_EQ(opt.insert(a), ref.insert(a)) << "op " << i;
            break;
          case 6:
            ASSERT_EQ(opt.contains(a), ref.contains(a)) << "op " << i;
            break;
          default:
            ASSERT_EQ(opt.invalidate(a), ref.invalidate(a))
                << "op " << i;
            break;
        }
        if (i % 4096 == 4095) {
            opt.invalidateAll();
            ref.invalidateAll();
        }
        if (i % 512 == 0) {
            ASSERT_EQ(opt.occupancy(), ref.occupancy()) << "op " << i;
        }
    }
    EXPECT_EQ(opt.hits(), ref.hits());
    EXPECT_EQ(opt.misses(), ref.misses());
    EXPECT_EQ(opt.insertions(), ref.insertions());
    EXPECT_EQ(opt.evictions(), ref.evictions());
    EXPECT_EQ(opt.occupancy(), ref.occupancy());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, SetAssocDifferential,
    ::testing::Values(
        CacheGeomCase{"l1_like_lru", 64, 4, ReplPolicy::Lru, true},
        CacheGeomCase{"random_repl", 64, 4, ReplPolicy::Random, true},
        CacheGeomCase{"fifo_lowbit", 32, 2, ReplPolicy::Fifo, false},
        CacheGeomCase{"non_pow2_sets", 48, 3, ReplPolicy::Lru, true},
        CacheGeomCase{"direct_mapped", 128, 1, ReplPolicy::Lru, false}),
    [](const auto &info) { return std::string(info.param.name); });

// ---- TravellerCache vs RefTravellerCache ------------------------------

namespace
{

/**
 * Drive a TravellerCache and its reference in lock-step under @p repl
 * and @p bypass. Both sides mix the same raw seed into the same
 * dedicated stream, so bypass and victim draws line up one-to-one.
 */
void
travellerLockStep(ReplPolicy repl, double bypass)
{
    SystemConfig cfg;
    cfg.memBytesPerUnit = 1ull << 22; // small cache: evictions happen
    cfg.traveller.repl = repl;
    cfg.traveller.bypassProb = bypass;
    cfg.validate();
    TravellerCache opt(cfg, cfg.seed);
    check::RefTravellerCache ref(cfg.travellerSets(), cfg.traveller.assoc,
                                 cfg.traveller.repl,
                                 cfg.traveller.bypassProb, cfg.seed);

    Rng gen(0x77aaull);
    for (std::uint64_t i = 0; i < kOps; ++i) {
        Addr a = drawBlockAddr(gen, 4096);
        switch (gen.below(8)) {
          case 0:
          case 1:
          case 2:
            ASSERT_EQ(opt.lookup(a), ref.lookup(a)) << "op " << i;
            break;
          case 3:
          case 4:
          case 5:
            ASSERT_EQ(opt.maybeInsert(a), ref.maybeInsert(a))
                << "op " << i;
            break;
          case 6:
            // Re-homing drop: the surviving ways must keep the order
            // (and, under LRU/FIFO, the stamps) the reference keeps, or
            // later victims diverge.
            ASSERT_EQ(opt.invalidate(a), ref.invalidate(a)) << "op " << i;
            break;
          default:
            ASSERT_EQ(opt.contains(a), ref.contains(a)) << "op " << i;
            break;
        }
        if (i % 997 == 996) {
            // Rare unit-failure purge: a pseudo-random third of the
            // blocks, so most sets keep some ways and compact.
            const std::uint64_t third = gen.below(3);
            auto failed = [third](Addr b) {
                return mix64(blockNumber(b)) % 3 == third;
            };
            ASSERT_EQ(opt.invalidateMatching(failed),
                      ref.invalidateMatching(failed))
                << "op " << i;
        }
        if (i % 4096 == 4095) {
            opt.bulkInvalidate();
            ref.bulkInvalidate();
        }
        if (i % 512 == 0) {
            ASSERT_EQ(opt.occupancy(), ref.occupancy()) << "op " << i;
        }
    }
    EXPECT_EQ(opt.hits(), ref.hits());
    EXPECT_EQ(opt.misses(), ref.misses());
    EXPECT_EQ(opt.insertions(), ref.insertions());
    EXPECT_EQ(opt.evictions(), ref.evictions());
    EXPECT_EQ(opt.bypasses(), ref.bypasses());
    EXPECT_EQ(opt.occupancy(), ref.occupancy());
}

std::string
bypassName(double bypass)
{
    return "bypass" + std::to_string(static_cast<int>(bypass * 100));
}

} // namespace

/** Random replacement (the default) at each bypass probability. */
class TravellerDifferential : public ::testing::TestWithParam<double>
{
};

TEST_P(TravellerDifferential, LockStepAgainstReference)
{
    travellerLockStep(ReplPolicy::Random, GetParam());
}

INSTANTIATE_TEST_SUITE_P(BypassProbs, TravellerDifferential,
                         ::testing::Values(0.0, 0.1, 0.5),
                         [](const auto &info) {
                             return bypassName(info.param);
                         });

/**
 * The stamp-reading policies: the cache keeps recency stamps only for
 * these, so their victims, stamp updates on hits and stamp moves on
 * compaction are checked here.
 */
class TravellerRecencyDifferential
    : public ::testing::TestWithParam<std::tuple<ReplPolicy, double>>
{
};

TEST_P(TravellerRecencyDifferential, LockStepAgainstReference)
{
    travellerLockStep(std::get<0>(GetParam()), std::get<1>(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    Policies, TravellerRecencyDifferential,
    ::testing::Combine(::testing::Values(ReplPolicy::Lru, ReplPolicy::Fifo),
                       ::testing::Values(0.0, 0.1, 0.5)),
    [](const auto &info) {
        return std::string(nameOf(std::get<0>(info.param))) + "_"
            + bypassName(std::get<1>(info.param));
    });

// ---- BandwidthMeter vs RefBandwidthMeter ------------------------------

TEST(BandwidthMeterDifferential, LockStepAgainstReference)
{
    constexpr Tick width = 256 * ticksPerNs;
    BandwidthMeter opt(width);
    check::RefBandwidthMeter ref(width);

    // Out-of-order start times and services spanning several buckets —
    // exactly the regime the paged backfill structure optimizes.
    Rng gen(0xbeefu);
    Tick base = 0;
    for (std::uint64_t i = 0; i < kOps; ++i) {
        // Drift the window forward while jittering backwards, so
        // reservations arrive out of time order like task-granularity
        // timing produces.
        base += gen.below(200);
        Tick t = base >= 5000 ? base - gen.below(5000) : base;
        Tick service = gen.below(3 * width / 2) + 1;
        ASSERT_EQ(opt.reserve(t, service), ref.reserve(t, service))
            << "op " << i;
        if (i % 1024 == 1023) {
            ASSERT_EQ(opt.maxBucketFill(), ref.maxBucketFill());
            ASSERT_EQ(opt.bucketsInUse(), ref.bucketsInUse());
        }
        if (i % 6000 == 5999) {
            opt.reset();
            ref.reset();
            base = 0;
        }
    }
    EXPECT_EQ(opt.bucketsInUse(), ref.bucketsInUse());
    EXPECT_EQ(opt.maxBucketFill(), ref.maxBucketFill());
    EXPECT_LE(opt.maxBucketFill(), width);
}

namespace
{

/**
 * A BandwidthMeter and its reference in lock-step under the
 * discardBefore() contract: each fence lets the meter retire and
 * recycle its pages below it, and no later reservation starts before
 * the fence. The reference keeps every bucket, so the two agree only
 * if retirement, recycling and reset() leave no trace.
 */
struct FencedMeterPair
{
    explicit FencedMeterPair(Tick width_)
        : width(width_), opt(width_), ref(width_)
    {
    }

    void
    reserve(Tick t, Tick service)
    {
        ASSERT_GE(t, fence);
        ASSERT_EQ(opt.reserve(t, service), ref.reserve(t, service))
            << "op " << ops << " at t " << t;
        ++ops;
    }

    /** Close a window at @p t; every 16th also compares counters. */
    void
    fenceAt(Tick t)
    {
        fence = t;
        opt.discardBefore(t);
        if (++fences % 16 == 0)
            expectSameCounters();
    }

    void
    expectSameCounters()
    {
        ASSERT_EQ(opt.bucketsInUse(), ref.bucketsInUse())
            << "fence " << fence;
        ASSERT_EQ(opt.maxBucketFill(), ref.maxBucketFill())
            << "fence " << fence;
    }

    void
    reset()
    {
        opt.reset();
        ref.reset();
        fence = 0;
    }

    const Tick width;
    BandwidthMeter opt;
    check::RefBandwidthMeter ref;
    Tick fence = 0;
    std::uint64_t ops = 0;
    std::uint64_t fences = 0;
};

/** Fence windows of 256 buckets, one meter page. */
constexpr std::uint64_t kWindowBuckets = 256;

/**
 * Dense backlog: @p windows windows, each offered 9/8 of its capacity
 * in services of one to eight @p quantum at shuffled times inside the
 * window. The backlog grows by an eighth of a window per window, so
 * the congestion cursor retires pages on its own too.
 */
void
denseBacklog(FencedMeterPair &m, Rng &gen, Tick &now, int windows,
             Tick quantum)
{
    const Tick window = kWindowBuckets * m.width;
    for (int w = 0; w < windows; ++w) {
        for (Tick offered = 0; offered < window + window / 8;) {
            const Tick service = quantum * (1 + gen.below(8));
            ASSERT_NO_FATAL_FAILURE(
                m.reserve(now + gen.below(window), service));
            offered += service;
        }
        now += window;
        ASSERT_NO_FATAL_FAILURE(m.fenceAt(now));
    }
}

/**
 * kv-serve's DRAM bank between accesses: a refresh-sized 260 ns
 * service every ~15 buckets of 256 ns, a short access after a third
 * of them.
 */
void
sparseRefreshes(FencedMeterPair &m, Rng &gen, Tick &now, int windows)
{
    const Tick refresh = 260 * ticksPerNs;
    Tick next = now;
    for (int w = 0; w < windows; ++w) {
        const Tick end = now + kWindowBuckets * m.width;
        for (; next < end; next += 14 * m.width + gen.below(2 * m.width)) {
            ASSERT_NO_FATAL_FAILURE(m.reserve(next, refresh));
            if (gen.below(3) == 0) {
                ASSERT_NO_FATAL_FAILURE(
                    m.reserve(next + gen.below(8 * m.width),
                              5 * ticksPerNs + gen.below(40 * ticksPerNs)));
            }
        }
        now = end;
        ASSERT_NO_FATAL_FAILURE(m.fenceAt(now));
    }
}

/**
 * kv-serve's tFAW meter: bursts of one to three quarter-window ACTs,
 * each burst inside one bucket two to thirteen buckets after the last,
 * so no bucket of this phase fills up.
 */
void
sparseActs(FencedMeterPair &m, Rng &gen, Tick &now, int windows)
{
    const Tick quarter = m.width / 4;
    Tick next = (now + m.width - 1) / m.width * m.width;
    for (int w = 0; w < windows; ++w) {
        const Tick end = now + kWindowBuckets * m.width;
        for (; next < end; next += (2 + gen.below(12)) * m.width) {
            const std::uint64_t burst = 1 + gen.below(3);
            for (std::uint64_t i = 0; i < burst; ++i)
                ASSERT_NO_FATAL_FAILURE(
                    m.reserve(next + gen.below(m.width), quarter));
        }
        now = end;
        ASSERT_NO_FATAL_FAILURE(m.fenceAt(now));
    }
}

/**
 * The whole schedule on one meter: a dense backlog, an idle gap that
 * retires all of it at one fence, a sparse phase of 200 pages, and a
 * last backlog that leaves recycled live pages full for reset() to
 * clean before a backlog runs over them again. @p sparsePeak gets the
 * sparse phase's largest fill, taken while the backlog's full buckets
 * lie ~200 pages below the fence.
 */
template <typename Sparse>
void
churnPages(FencedMeterPair &m, Rng &gen, Sparse sparse, Tick &sparsePeak)
{
    const Tick quantum = m.width / 4;
    Tick now = 0;
    ASSERT_NO_FATAL_FAILURE(denseBacklog(m, gen, now, 8, quantum));
    now += 20 * 4 * kWindowBuckets * m.width;
    const std::uint64_t sparseStart = now / m.width;
    ASSERT_NO_FATAL_FAILURE(sparse(m, gen, now, 800));
    ASSERT_NO_FATAL_FAILURE(m.expectSameCounters());
    ASSERT_EQ(m.ref.maxBucketFill(), m.width);
    sparsePeak = m.ref.maxBucketFill(sparseStart);

    const Tick again = now;
    ASSERT_NO_FATAL_FAILURE(denseBacklog(m, gen, now, 8, quantum));
    ASSERT_NO_FATAL_FAILURE(m.expectSameCounters());
    m.reset();
    now = again;
    ASSERT_NO_FATAL_FAILURE(denseBacklog(m, gen, now, 8, quantum));
    ASSERT_NO_FATAL_FAILURE(m.expectSameCounters());
}

} // namespace

TEST(BandwidthMeterDifferential, LockStepAcrossRetirementAndReuse)
{
    // Hundreds of pages through retirement, the spare stash and
    // reset(), every window ending at a discardBefore() fence, on the
    // two meters kv-serve cycles most: a DRAM bank (256 ns buckets)
    // and a channel's ACT window (40 ns buckets).
    FencedMeterPair bank(256 * ticksPerNs);
    FencedMeterPair act(40 * ticksPerNs);
    Rng gen(0x9a6e5u);
    Tick sparsePeak = 0;
    ASSERT_NO_FATAL_FAILURE(
        churnPages(bank, gen, sparseRefreshes, sparsePeak));
    ASSERT_NO_FATAL_FAILURE(churnPages(act, gen, sparseActs, sparsePeak));
    // No ACT bucket of the sparse phase filled up, so the peak the two
    // meters agreed on after it lived only in retired pages.
    EXPECT_LT(sparsePeak, act.width);
    EXPECT_GT(bank.ops + act.ops, 50000u);
}

namespace
{

/**
 * @p windows fence windows of 300 buckets offered ~1.1 times their
 * capacity in services of up to three widths at shuffled times, so
 * services pour across page boundaries (256 buckets) and fences
 * retire pages for reuse. Every fence audits the cached row.
 */
void
wideWindows(FencedMeterPair &m, Rng &gen, Tick &now, int windows)
{
    const Tick window = 300 * m.width;
    for (int w = 0; w < windows; ++w) {
        for (Tick offered = 0; offered < window + window / 10;) {
            const Tick service = 1 + gen.below(3 * m.width);
            ASSERT_NO_FATAL_FAILURE(
                m.reserve(now + gen.below(window), service));
            offered += service;
        }
        now += window;
        ASSERT_NO_FATAL_FAILURE(m.fenceAt(now));
        ASSERT_EQ(m.opt.staleEntries(), 0u) << "fence " << m.fence;
    }
}

} // namespace

TEST(BandwidthMeterDifferential, FillsAtTheWidthLimit)
{
    // The widest bucket a 32-bit fill holds: every fill and take is
    // near 2^32, so a narrower fill or a wrapping sum diverges here.
    constexpr Tick width = std::numeric_limits<std::uint32_t>::max();
    FencedMeterPair m(width);
    Rng gen(0x32b175u);
    Tick now = 0;
    ASSERT_NO_FATAL_FAILURE(wideWindows(m, gen, now, 24));
    ASSERT_NO_FATAL_FAILURE(m.expectSameCounters());
    ASSERT_EQ(m.ref.maxBucketFill(), width);

    // A copy taken with live pages books into its own rows: source and
    // copy run on, interleaved, each in lock-step with its own copy of
    // the reference.
    FencedMeterPair copy(m);
    ASSERT_EQ(copy.opt.staleEntries(), 0u);
    Rng copyGen(0xc0b1u);
    Tick copyNow = now;
    for (int w = 0; w < 12; ++w) {
        ASSERT_NO_FATAL_FAILURE(wideWindows(m, gen, now, 1));
        ASSERT_NO_FATAL_FAILURE(wideWindows(copy, copyGen, copyNow, 1));
    }
    ASSERT_NO_FATAL_FAILURE(m.expectSameCounters());
    ASSERT_NO_FATAL_FAILURE(copy.expectSameCounters());
    m.reset();
    ASSERT_EQ(m.opt.staleEntries(), 0u);
    now = 0;
    ASSERT_NO_FATAL_FAILURE(wideWindows(m, gen, now, 8));
    ASSERT_NO_FATAL_FAILURE(m.expectSameCounters());
}

namespace
{

/**
 * The run loop's fence cadence: @p fences fences at ticks that are not
 * page-aligned, each 1 tick to BandwidthMeter::fenceInterval (half a
 * page) after the last, so several fall inside each page span. Between
 * two fences the meter is offered @p load times the capacity of the
 * gap in services of up to two widths, plus a rare five-width one,
 * starting anywhere in [fence, fence + @p backlog): they straddle
 * page boundaries, and at a load near 1 they fill buckets and spill
 * past the window's end.
 */
void
runLoopFences(FencedMeterPair &m, Rng &gen, Tick &now, int fences,
              double load, Tick backlog)
{
    for (int f = 0; f < fences; ++f) {
        const Tick gap = 1 + gen.below(BandwidthMeter::fenceInterval);
        const auto offer = static_cast<Tick>(load * gap);
        for (Tick offered = 0; offered < offer;) {
            const Tick service = gen.below(64) == 0
                ? 5 * m.width : 1 + gen.below(2 * m.width);
            ASSERT_NO_FATAL_FAILURE(
                m.reserve(now + gen.below(backlog), service));
            offered += service;
        }
        now += gap;
        ASSERT_NO_FATAL_FAILURE(m.fenceAt(now));
        if (f % 64 == 0) {
            ASSERT_EQ(m.opt.staleEntries(), 0u) << "fence " << m.fence;
        }
    }
}

} // namespace

TEST(BandwidthMeterDifferential, RunLoopFencesInsidePages)
{
    // A link or bank meter under the run loop's fences: a near-
    // saturated phase whose backlog runs three pages ahead of the
    // fence, a sparse one, then a reset() mid-stream (the retirement
    // floor goes back to 0, so the stream starts over at tick 0 over
    // recycled and stashed pages) and both phases again.
    FencedMeterPair m(BandwidthMeter::defaultBucketTicks);
    const Tick page = BandwidthMeter::pageBuckets * m.width;
    Rng gen(0xf3ce5u);
    Tick now = 0;
    for (int round = 0; round < 2; ++round) {
        ASSERT_NO_FATAL_FAILURE(
            runLoopFences(m, gen, now, 400, 0.98, 3 * page));
        ASSERT_NO_FATAL_FAILURE(
            runLoopFences(m, gen, now, 400, 0.3, page + page / 3));
        ASSERT_NO_FATAL_FAILURE(m.expectSameCounters());
        ASSERT_EQ(m.ref.maxBucketFill(), m.width);
        ASSERT_GE(800 * page, 3 * now) << "under 3 fences a page span";
        m.reset();
        now = 0;
    }
    EXPECT_GT(m.ops, 50000u);
}

// ---- Network vs RefNetwork --------------------------------------------

struct NetDiffCase
{
    std::uint32_t meshX;
    std::uint32_t meshY;
    IntraTopology intra;
    bool linkFaults;
};

void
PrintTo(const NetDiffCase &c, std::ostream *os)
{
    *os << "mesh" << c.meshX << "x" << c.meshY
        << (c.intra == IntraTopology::Ring ? "_ring" : "_crossbar")
        << (c.linkFaults ? "_faults" : "");
}

class NetworkDifferential : public ::testing::TestWithParam<NetDiffCase>
{
};

TEST_P(NetworkDifferential, LockStepAgainstReference)
{
    const NetDiffCase &g = GetParam();
    SystemConfig cfg;
    cfg.meshX = g.meshX;
    cfg.meshY = g.meshY;
    cfg.net.intraTopology = g.intra;
    if (g.linkFaults) {
        // A quarter of the links: each adds latency, drops a third of
        // its traversals and retries them.
        cfg.fault.link.count = cfg.numStacks();
        cfg.fault.link.dropProb = 0.3;
        cfg.fault.link.extraLatencyNs = 3.0;
    }
    cfg.validate();
    const Topology topo(cfg);
    EnergyAccount energy(cfg);
    FaultModel optFaults(cfg);
    FaultModel refFaults(cfg);
    Network opt(cfg, topo, energy, &optFaults);
    check::RefNetwork ref(cfg, topo, &refFaults);

    // Random pairs at drifting, backwards-jittering starts, dense enough
    // that links and ports queue.
    const std::uint32_t units = topo.numUnits();
    const Tick window = 2000 * ticksPerNs;
    Rng gen(0x4e7u + units);
    Tick base = 0;
    for (std::uint64_t i = 0; i < kOps; ++i) {
        base += gen.below(2000 * ticksPerNs / units + 1);
        const Tick t = base >= window ? base - gen.below(window) : base;
        const auto src = static_cast<UnitId>(gen.below(units));
        const auto dst = static_cast<UnitId>(gen.below(units));
        const auto bytes = static_cast<std::uint32_t>(16 + gen.below(256));
        const TransferResult r = opt.transfer(src, dst, bytes, t);
        const auto [latency, hops] = ref.transfer(src, dst, bytes, t);
        ASSERT_EQ(r.latency, latency)
            << "packet " << i << " " << src << "->" << dst;
        ASSERT_EQ(r.interHops, hops)
            << "packet " << i << " " << src << "->" << dst;
        ASSERT_EQ(hops, topo.interHops(src, dst));
    }
    EXPECT_EQ(opt.totalPackets(), ref.packets());
    EXPECT_EQ(opt.totalInterHops(), ref.interHops());
    EXPECT_EQ(opt.totalIntraTraversals(), ref.intraTraversals());
    EXPECT_EQ(opt.totalDropped(), ref.dropped());
    EXPECT_EQ(opt.totalRetries(), ref.retries());
    EXPECT_EQ(opt.portWaitNs().total(), ref.portWaitSum());
    EXPECT_EQ(opt.linkWaitNs().total(), ref.linkWaitSum());
    EXPECT_GT(opt.linkWaitNs().total(), 0.0);
    EXPECT_GT(opt.portWaitNs().total(), 0.0);
    EXPECT_EQ(opt.totalDropped() > 0, g.linkFaults);
}

namespace
{

std::vector<NetDiffCase>
netDiffCases()
{
    std::vector<NetDiffCase> cases;
    const std::pair<std::uint32_t, std::uint32_t> meshes[] = {
        {2, 2}, {4, 4}, {8, 8}, {4, 2}};
    for (const auto &[x, y] : meshes)
        for (IntraTopology intra :
             {IntraTopology::Crossbar, IntraTopology::Ring})
            for (bool faults : {false, true})
                cases.push_back({x, y, intra, faults});
    return cases;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(Meshes, NetworkDifferential,
                         ::testing::ValuesIn(netDiffCases()),
                         [](const auto &info) {
                             std::ostringstream os;
                             PrintTo(info.param, &os);
                             return os.str();
                         });

// ---- DdrBackend vs RefDdrBackend --------------------------------------

// gtest lists a parameter it cannot print as its raw bytes, and the
// leading bytes land in the listed test name. The case therefore opens
// with a plain value (the op-stream seed), not the name pointer, whose
// bytes would move whenever the binary's string layout does.
struct DdrDiffCase
{
    std::uint32_t seed;
    PagePolicy policy;
    DramAddrMapKind addrMap;
    bool refresh;
    const char *name;
};

class DdrBackendDifferential
    : public ::testing::TestWithParam<DdrDiffCase>
{
};

TEST_P(DdrBackendDifferential, LockStepAgainstReference)
{
    const DdrDiffCase &g = GetParam();
    SystemConfig cfg;
    cfg.memBytesPerUnit = 1ull << 22; // few rows/bank: conflicts happen
    cfg.dram.backend = MemBackendKind::Ddr;
    cfg.dram.pagePolicy = g.policy;
    cfg.dram.addrMap = g.addrMap;
    cfg.dram.refreshEnabled = g.refresh;
    cfg.validate();
    EnergyAccount energy(cfg);
    DdrBackend opt(cfg, energy); // faults == nullptr: no Rng draws
    check::RefDdrBackend ref(cfg);

    // Drifting, backwards-jittering start ticks: the task-granularity
    // regime every bank-state anchor must stay bounded under.
    Rng gen(g.seed);
    Tick base = 0;
    for (std::uint64_t i = 0; i < kOps; ++i) {
        base += gen.below(300);
        Tick t = base >= 20000 ? base - gen.below(20000) : base;
        Addr a = gen.below(cfg.memBytesPerUnit / cachelineBytes)
            * cachelineBytes;
        bool wr = gen.below(4) == 0;
        ASSERT_EQ(opt.access(a, cachelineBytes, wr, false, t),
                  ref.access(a, cachelineBytes, wr, t))
            << "op " << i;
    }
    EXPECT_EQ(opt.reads(), ref.reads());
    EXPECT_EQ(opt.writes(), ref.writes());
    EXPECT_EQ(opt.rowMisses(), ref.rowMisses());
    EXPECT_EQ(opt.rowHits(), ref.rowHits());
    EXPECT_EQ(opt.refreshes(), ref.refreshes());
    EXPECT_EQ(opt.actStalls(), ref.actStalls());
    // Four-activate invariant, cross-checked on the naive meter too.
    EXPECT_LE(ref.actWindowPeak(), ref.actWindowWidth());
}

INSTANTIATE_TEST_SUITE_P(
    Policies, DdrBackendDifferential,
    ::testing::Values(
        DdrDiffCase{0xdd78u, PagePolicy::Open,
                    DramAddrMapKind::RowBankColumn, true, "open_rbc"},
        DdrDiffCase{0xdd81u, PagePolicy::Close,
                    DramAddrMapKind::RowColumnBank, true, "close_rcb"},
        DdrDiffCase{0xdd8bu, PagePolicy::Adaptive,
                    DramAddrMapKind::BankRowColumn, true, "adaptive_brc"},
        DdrDiffCase{0xdd98u, PagePolicy::Open,
                    DramAddrMapKind::RowColumnBank, false,
                    "open_rcb_norefresh"},
        DdrDiffCase{0xddabu, PagePolicy::Adaptive,
                    DramAddrMapKind::RowBankColumn, true, "adaptive_rbc"}),
    [](const auto &info) { return std::string(info.param.name); });

// ---- PrefetchBuffer vs RefPrefetchBuffer ------------------------------

TEST(PrefetchBufferDifferential, LockStepAgainstReference)
{
    constexpr std::uint64_t capacity = 64; // 4 kB / 64 B
    PrefetchBuffer opt(capacity);
    check::RefPrefetchBuffer ref(capacity);

    // One generator decodes each operation and its arguments exactly
    // once per iteration, so both sides see identical inputs.
    Rng gen2(0xfee1u);
    Tick now = 0;
    for (std::uint64_t i = 0; i < kOps; ++i) {
        Addr a = drawBlockAddr(gen2, 256);
        now += gen2.below(50);
        std::uint64_t op = gen2.below(8);
        if (op < 4) {
            Tick ready = now + gen2.below(400);
            opt.fill(a, ready);
            ref.fill(a, ready);
        } else if (op < 7) {
            ASSERT_EQ(opt.lookup(a, now), ref.lookup(a, now))
                << "op " << i;
        } else {
            ASSERT_EQ(opt.peek(a), ref.peek(a)) << "op " << i;
        }
        ASSERT_EQ(opt.size(), ref.size()) << "op " << i;
        if (i % 4096 == 4095) {
            opt.invalidateAll();
            ref.invalidateAll();
        }
    }
    EXPECT_EQ(opt.hits(), ref.hits());
    EXPECT_EQ(opt.lateHits(), ref.lateHits());
    EXPECT_EQ(opt.misses(), ref.misses());
    EXPECT_EQ(opt.fills(), ref.fills());
    EXPECT_EQ(opt.evictions(), ref.evictions());
}

// ---- EventQueue vs RefEventQueue --------------------------------------

TEST(EventQueueDifferential, ExecutionOrderMatchesReference)
{
    EventQueue opt;
    check::RefEventQueue ref;

    std::vector<std::uint64_t> optLog, refLog;

    // Seeded generator interleaving schedules (with deliberate tick
    // ties), runs, and barrier-style clearPending; callbacks may
    // schedule follow-ups, exercising in-flight insertion.
    Rng gen(0xe0e0u);
    std::uint64_t nextId = 0;
    for (std::uint64_t i = 0; i < kOps; ++i) {
        std::uint64_t op = gen.below(8);
        if (op < 4) {
            // Coarse tick grid forces frequent ties; order must then
            // follow insertion sequence on both sides.
            Tick when = opt.now() + gen.below(16) * 10;
            std::uint64_t id = nextId++;
            bool chain = gen.below(4) == 0;
            auto *log = &optLog;
            EventQueue *q = &opt;
            opt.schedule(when, [log, id, chain, q] {
                log->push_back(id);
                if (chain)
                    q->scheduleIn(5, [log, id] {
                        log->push_back(id | (1ull << 63));
                    });
            });
            auto *rlog = &refLog;
            check::RefEventQueue *rq = &ref;
            ref.schedule(when, [rlog, id, chain, rq] {
                rlog->push_back(id);
                if (chain)
                    rq->scheduleIn(5, [rlog, id] {
                        rlog->push_back(id | (1ull << 63));
                    });
            });
        } else if (op < 7) {
            ASSERT_EQ(opt.runOne(), ref.runOne()) << "op " << i;
            ASSERT_EQ(opt.now(), ref.now()) << "op " << i;
        } else if (op == 7 && gen.below(64) == 0) {
            opt.clearPending();
            ref.clearPending();
        }
        ASSERT_EQ(opt.size(), ref.size()) << "op " << i;
    }
    while (opt.runOne())
        ref.runOne();
    EXPECT_FALSE(ref.runOne());
    EXPECT_EQ(opt.now(), ref.now());
    EXPECT_EQ(opt.executed(), ref.executed());
    EXPECT_EQ(optLog, refLog);
    EXPECT_GT(optLog.size(), 1000u);
}

// ---- serve::LatencyRecorder vs RefLatencyRecorder ---------------------

TEST(LatencyRecorderDifferential, QuantilesMatchFullSortReference)
{
    // Same stream into both sides; after every batch the nth_element
    // selection must agree bit-exactly with the full-sort reference at
    // every reported rank, including heavy-duplicate and adversarial
    // already-sorted regimes.
    constexpr Tick slo = 5000 * ticksPerNs;
    serve::LatencyRecorder opt(slo);
    check::RefLatencyRecorder ref(slo);

    const double qs[] = {0.5, 0.9, 0.95, 0.99, 0.999, 1.0};
    Rng gen(0x1a7e9cu);
    for (std::uint64_t i = 0; i < kOps; ++i) {
        Tick v;
        switch (gen.below(4)) {
          case 0:
            // Heavy-tail draw: most mass small, occasional huge spike.
            v = gen.below(64) == 0 ? gen.below(1u << 24) : gen.below(4096);
            break;
          case 1:
            v = i; // monotonically increasing (sorted input)
            break;
          case 2:
            v = 1000; // heavy duplicates around one value
            break;
          default:
            v = gen.below(1u << 20);
            break;
        }
        opt.record(v);
        ref.record(v);
        if (i % 997 == 0 || i + 1 == kOps) {
            for (double q : qs)
                ASSERT_EQ(opt.percentile(q), ref.percentile(q))
                    << "op " << i << " q " << q;
            ASSERT_EQ(opt.meanTicks(), ref.meanTicks()) << "op " << i;
        }
    }
    EXPECT_EQ(opt.samples(), ref.samples());
    EXPECT_EQ(opt.sloMisses(), ref.sloMisses());
}

TEST(LatencyRecorderDifferential, EmptyAndSingleSample)
{
    serve::LatencyRecorder opt(100);
    check::RefLatencyRecorder ref(100);
    EXPECT_EQ(opt.percentile(0.99), 0u);
    EXPECT_EQ(opt.percentile(0.99), ref.percentile(0.99));
    opt.record(42);
    ref.record(42);
    for (double q : {0.001, 0.5, 0.999, 1.0})
        EXPECT_EQ(opt.percentile(q), ref.percentile(q)) << q;
}

// ---- serve::ZipfianSampler vs RefZipfSampler --------------------------

TEST(ZipfSamplerDifferential, KeysMatchLinearScanReference)
{
    // Binary-search inversion vs linear scan over identically-built
    // CDF tables: the same uniform draw stream must yield the same key
    // sequence bit for bit, at several skews including the uniform
    // degenerate case.
    for (double s : {0.0, 0.5, 0.99, 1.2}) {
        SCOPED_TRACE(s);
        constexpr std::uint64_t keys = 2311; // non-power-of-two
        serve::ZipfianSampler opt(keys, s);
        check::RefZipfSampler ref(keys, s);

        Rng optRng(0x21bfu), refRng(0x21bfu);
        for (std::uint64_t i = 0; i < kOps; ++i)
            ASSERT_EQ(opt(optRng), ref(refRng)) << "draw " << i;
        // Boundary inversions, exactly representable in double.
        for (double u : {0.0, 0.25, 0.5, 0.999999, 1.0 - 1e-16})
            ASSERT_EQ(opt.keyFor(u), ref.keyFor(u)) << u;
    }
}

TEST(ZipfSamplerDifferential, GuideTableAtServingSkewAndEveryEdge)
{
    // kv-serve's skew over 2^16 + 5 keys (so slices hold uneven key
    // counts). The guide table narrows each search to one slice of
    // [0, 1]; the key must match the reference's whole-table linear
    // scan for random draws, on both sides of every slice edge j/m,
    // and at both ends of [0, 1).
    constexpr std::uint64_t keys = (1u << 16) + 5;
    serve::ZipfianSampler opt(keys, 0.99);
    check::RefZipfSampler ref(keys, 0.99);

    Rng optRng(0x5e41u), refRng(0x5e41u);
    for (std::uint64_t i = 0; i < kOps; ++i)
        ASSERT_EQ(opt(optRng), ref(refRng)) << "draw " << i;

    const std::uint64_t m = opt.guideSlices();
    ASSERT_EQ(m, 8192u);
    for (std::uint64_t j = 0; j <= m; ++j) {
        const double edge =
            static_cast<double>(j) / static_cast<double>(m);
        for (double u : {edge, std::nextafter(edge, 0.0)})
            ASSERT_EQ(opt.keyFor(u), ref.keyFor(u))
                << "edge " << j << "/" << m << " u " << u;
    }
    for (double u : {0.0, 1.0 - 0x1p-53})
        ASSERT_EQ(opt.keyFor(u), ref.keyFor(u)) << u;
    EXPECT_EQ(opt.keyFor(1.0 - 0x1p-53), keys - 1);
}

// ---- DataHotness vs RefDataHotness ------------------------------------

namespace
{

void
expectSameEntries(const std::vector<HotEntry> &a,
                  const std::vector<HotEntry> &b, std::uint64_t op,
                  UnitId home)
{
    ASSERT_EQ(a.size(), b.size()) << "op " << op << " home " << home;
    for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].block, b[i].block)
            << "op " << op << " home " << home << " rank " << i;
        ASSERT_EQ(a[i].cnt, b[i].cnt)
            << "op " << op << " home " << home << " rank " << i;
        ASSERT_EQ(a[i].reqId, b[i].reqId)
            << "op " << op << " home " << home << " rank " << i;
        ASSERT_EQ(a[i].reqCnt, b[i].reqCnt)
            << "op " << op << " home " << home << " rank " << i;
    }
}

} // namespace

TEST(DataHotnessDifferential, LockStepAgainstReference)
{
    // Flat slot banks with in-place lossy counting vs a per-home
    // std::map scanned naively. A tight block window over a small K
    // forces constant min-evictions and Boyer-Moore vote churn.
    constexpr std::uint32_t units = 8;
    constexpr std::uint32_t hotK = 6;
    constexpr std::uint32_t decayShift = 1;
    DataHotness opt(units, hotK, decayShift);
    check::RefDataHotness ref(units, hotK, decayShift);

    Rng gen(0x407b10cc5u);
    for (std::uint64_t i = 0; i < kOps; ++i) {
        auto home = static_cast<UnitId>(gen.below(units));
        Addr a = drawBlockAddr(gen, 24); // few blocks: slot contention
        auto req = static_cast<UnitId>(gen.below(units));
        switch (gen.below(8)) {
          case 7:
            opt.erase(home, a);
            ref.erase(home, a);
            break;
          default:
            opt.record(home, a, req);
            ref.record(home, a, req);
            break;
        }
        if (i % 64 == 63) {
            opt.decayAll();
            ref.decayAll();
        }
        ASSERT_EQ(opt.totalCount(home), ref.totalCount(home))
            << "op " << i;
        if (i % 128 == 0)
            for (UnitId h = 0; h < units; ++h)
                expectSameEntries(opt.topK(h), ref.topK(h), i, h);
    }
    for (UnitId h = 0; h < units; ++h) {
        expectSameEntries(opt.topK(h), ref.topK(h), kOps, h);
        EXPECT_EQ(opt.totalCount(h), ref.totalCount(h)) << "home " << h;
    }
}

TEST(DataHotnessDifferential, DecayFreesSlotsIdentically)
{
    // Full-strength decay (shift 63) zeroes everything: both sides
    // must agree the banks are empty and reusable afterwards.
    DataHotness opt(2, 4, 63);
    check::RefDataHotness ref(2, 4, 63);
    for (std::uint64_t i = 0; i < 64; ++i) {
        Addr a = (i % 6) * cachelineBytes;
        opt.record(0, a, 1);
        ref.record(0, a, 1);
    }
    opt.decayAll();
    ref.decayAll();
    EXPECT_EQ(opt.totalCount(0), 0u);
    EXPECT_EQ(ref.totalCount(0), 0u);
    EXPECT_TRUE(opt.topK(0).empty());
    EXPECT_TRUE(ref.topK(0).empty());
    opt.record(0, 0, 1);
    ref.record(0, 0, 1);
    expectSameEntries(opt.topK(0), ref.topK(0), 65, 0);
}

// ---- HomeIndirection vs RefHomeIndirection ----------------------------

TEST(HomeIndirectionDifferential, LockStepAgainstReference)
{
    // unordered_map overlay vs ordered std::map: every point query
    // must agree. Static homes derive deterministically from the
    // block number, like the range partition does.
    constexpr std::uint32_t units = 16;
    HomeIndirection opt;
    check::RefHomeIndirection ref;

    Rng gen(0x1d1ecccu);
    for (std::uint64_t i = 0; i < kOps; ++i) {
        Addr a = drawBlockAddr(gen, 512);
        auto base = static_cast<UnitId>(blockNumber(a) % units);
        switch (gen.below(8)) {
          case 0:
          case 1:
          case 2: {
            auto to = static_cast<UnitId>(gen.below(units));
            opt.set(a, to, base);
            ref.set(a, to, base);
            break;
          }
          case 3: {
            // Move home again: exercises overwrite of a live entry.
            auto to = static_cast<UnitId>(gen.below(units));
            opt.set(a, to, base);
            ref.set(a, to, base);
            break;
          }
          case 4:
            // Re-home back to base: the entry must vanish.
            opt.set(a, base, base);
            ref.set(a, base, base);
            break;
          default:
            break;
        }
        ASSERT_EQ(opt.resolve(a, base), ref.resolve(a, base))
            << "op " << i;
        ASSERT_EQ(opt.entries(), ref.entries()) << "op " << i;
        ASSERT_EQ(opt.active(), ref.active()) << "op " << i;
        if (i % 6000 == 5999) {
            opt.clear();
            ref.clear();
            ASSERT_FALSE(opt.active());
        }
    }
    // Full sweep: every block in the window resolves identically.
    for (std::uint64_t b = 0; b < 512; ++b) {
        Addr a = b * cachelineBytes;
        auto base = static_cast<UnitId>(b % units);
        EXPECT_EQ(opt.resolve(a, base), ref.resolve(a, base))
            << "block " << b;
    }
}

// ---- Scheduler (Eq. 1 scoring) vs RefHybridScorer --------------------

struct SchedDiffCase
{
    std::uint32_t seed;
    std::uint32_t meshX;
    std::uint32_t meshY;
    std::uint32_t unitsPerStack;
    std::uint32_t campCount;
    bool hybrid;     ///< false: the lowest-distance (memmatch) policy
    bool exhaustive; ///< false: the pruned hardware-scorer mode
    bool failUnits;  ///< take units down and up mid-stream
    std::uint64_t ops;
    const char *name;
};

void
PrintTo(const SchedDiffCase &c, std::ostream *os)
{
    *os << c.name;
}

class SchedulerDifferential
    : public ::testing::TestWithParam<SchedDiffCase>
{
};

namespace
{

/**
 * A task whose hint addresses sit in a 32-block window per unit, so
 * re-homed blocks recur. Some tasks carry no address, some more than
 * the 64-address sampling cap, some a range; some main homes are out
 * of range (no home preference).
 */
Task
drawSchedTask(Rng &gen, const AddressMap &amap, std::uint32_t units)
{
    auto addr = [&] {
        return amap.unitBase(static_cast<UnitId>(gen.below(units)))
            + gen.below(32) * cachelineBytes;
    };
    Task t;
    const std::uint64_t kind = gen.below(16);
    const std::uint64_t n =
        kind == 0 ? 0 : kind == 1 ? 65 + gen.below(100) : 1 + gen.below(18);
    for (std::uint64_t i = 0; i < n; ++i)
        t.hint.data.push_back(addr());
    if (gen.below(4) == 0)
        t.hint.ranges.push_back(AddrRange{
            addr(),
            static_cast<std::uint32_t>(1 + gen.below(4 * cachelineBytes))});
    t.mainHome = static_cast<UnitId>(gen.below(units + 1));
    return t;
}

::testing::AssertionResult
sameBits(const std::vector<double> &opt, const std::vector<double> &ref)
{
    if (opt.size() != ref.size())
        return ::testing::AssertionFailure()
            << "rows of " << opt.size() << " vs " << ref.size();
    for (std::size_t u = 0; u < opt.size(); ++u)
        if (std::bit_cast<std::uint64_t>(opt[u])
            != std::bit_cast<std::uint64_t>(ref[u]))
            return ::testing::AssertionFailure()
                << "unit " << u << ": " << std::hexfloat << opt[u]
                << " vs " << ref[u];
    return ::testing::AssertionSuccess();
}

} // namespace

TEST_P(SchedulerDifferential, LockStepAgainstReference)
{
    // The precomputed stack-tuple rows, the exchange-cached costload
    // rows with their per-forward patches, and the fused scoring pass
    // against a from-scratch Eq. 1 per decision. Two stragglers are
    // derated inside [2, 6) us and exchanges land anywhere in
    // [0, 8) us, so speeds flip between uniform and derated; a few
    // re-homed blocks put homes outside their static group.
    const SchedDiffCase &g = GetParam();
    SystemConfig cfg;
    cfg.meshX = g.meshX;
    cfg.meshY = g.meshY;
    cfg.unitsPerStack = g.unitsPerStack;
    cfg.traveller.style = CacheStyle::TravellerSramTags;
    cfg.traveller.campCount = g.campCount;
    cfg.sched.policy =
        g.hybrid ? SchedPolicy::Hybrid : SchedPolicy::LowestDistance;
    cfg.sched.exhaustiveScoring = g.exhaustive;
    cfg.fault.straggler.units = {1, 5};
    cfg.fault.straggler.computeDerate = 0.4;
    cfg.fault.straggler.bandwidthDerate = 0.7;
    cfg.fault.straggler.windowStartNs = 2000.0;
    cfg.fault.straggler.windowEndNs = 6000.0;
    cfg.validate();
    Topology topo(cfg);
    AddressMap amap(cfg);
    CampMapping camps(cfg, topo, amap);
    HomeIndirection indir;
    camps.setHomeIndirection(&indir);
    FaultModel faults(cfg);
    Scheduler opt(cfg, topo, camps, &faults);
    check::RefHybridScorer ref(cfg, topo, camps, &faults, g.hybrid);
    const std::uint32_t units = topo.numUnits();
    const UnitId failSet[2] = {2, 6};

    Rng gen(g.seed);
    std::uint64_t decisions = 0, moved = 0;
    for (std::uint64_t i = 0; i < g.ops; ++i) {
        const auto a = static_cast<UnitId>(gen.below(units));
        auto b = static_cast<UnitId>(gen.below(units));
        if (b == a)
            b = (b + 1) % units;
        const double load = gen.uniform(20.0, 2000.0);
        switch (gen.below(16)) {
          case 7:
          case 8:
            opt.onEnqueued(a, load);
            ref.onEnqueued(a, load);
            break;
          case 9:
          case 10:
            opt.onDequeued(a, load);
            ref.onDequeued(a, load);
            break;
          case 11:
            opt.onStolen(a, b, load);
            ref.onStolen(a, b, load);
            break;
          case 12:
            opt.onForwarded(a, b, load);
            ref.onForwarded(a, b, load);
            break;
          case 13: {
            const Tick now = gen.below(8000) * ticksPerNs;
            opt.exchangeSnapshot(now);
            ref.exchangeSnapshot(now);
            break;
          }
          case 14:
            if (g.failUnits) {
                const UnitId f = failSet[gen.below(2)];
                if (faults.isLive(f))
                    faults.markDown(f);
                else
                    faults.markUp(f);
            } else {
                Addr block = blockAlign(amap.unitBase(a)
                                        + gen.below(32) * cachelineBytes);
                indir.set(block, b, amap.homeOf(block));
            }
            break;
          case 15:
            // Rarely drain every queue: the next exchange then sees
            // W_avg == 0 and costload drops out mid-stream.
            if (gen.below(32) == 0)
                for (UnitId u = 0; u < units; ++u) {
                    opt.onDequeued(u, 1e30);
                    ref.onDequeued(u, 1e30);
                }
            break;
          default: {
            // A scheduling-window decision, then what the window does
            // with it: forward the task or keep it.
            Task t = drawSchedTask(gen, amap, units);
            UnitId creator = a;
            while (!faults.isLive(creator))
                creator = (creator + 1) % units;
            const UnitId got = opt.choose(t, creator);
            const UnitId want = ref.choose(t, creator);
            ASSERT_TRUE(sameBits(opt.scores(), ref.scores()))
                << "op " << i;
            ASSERT_EQ(got, want) << "op " << i;
            ++decisions;
            if (got != creator) {
                ++moved;
                opt.onForwarded(creator, got, load);
                ref.onForwarded(creator, got, load);
            } else {
                opt.onEnqueued(got, load);
                ref.onEnqueued(got, load);
            }
            break;
          }
        }
        if (i % 64 == 0)
            for (UnitId u = 0; u < units; ++u) {
                ASSERT_EQ(opt.trueW(u), ref.trueW(u)) << "op " << i;
                ASSERT_EQ(opt.snapshotW(u), ref.snapshotW(u)) << "op " << i;
            }
    }
    // The stream must exercise both outcomes of the window.
    EXPECT_GT(moved, decisions / 20);
    EXPECT_LT(moved, decisions);
}

INSTANTIATE_TEST_SUITE_P(
    Machines, SchedulerDifferential,
    ::testing::Values(
        // 4 groups of 4 stacks: 256 stack tuples.
        SchedDiffCase{0x5c01u, 4, 4, 8, 3, true, true, false, kOps,
                      "mesh4x4_c3"},
        // 16 groups of one stack each: a single stored row.
        SchedDiffCase{0x5c02u, 4, 4, 8, 15, true, true, false, kOps,
                      "mesh4x4_c15"},
        // The golden geometry: 8 units, one stack per group.
        SchedDiffCase{0x5c03u, 2, 2, 2, 3, true, true, false, kOps,
                      "golden2x2"},
        // 8 groups on 4 stacks: two groups inside every stack.
        SchedDiffCase{0x5c04u, 2, 2, 8, 7, true, true, false, kOps,
                      "groups_in_stacks"},
        // 16^4 tuples x 64 stacks exceed the table bound: the
        // per-candidate minimum.
        SchedDiffCase{0x5c05u, 8, 8, 8, 3, true, true, false, kOps,
                      "mesh8x8_c3_fallback"},
        SchedDiffCase{0x5c06u, 4, 4, 8, 3, true, false, false, kOps,
                      "pruned"},
        SchedDiffCase{0x5c07u, 4, 4, 8, 3, true, true, true, kOps,
                      "unit_failure"},
        SchedDiffCase{0x5c08u, 4, 4, 8, 3, false, true, false, kOps,
                      "memmatch"},
        // 1088 units: no premultiplied penalty rows above 1024.
        SchedDiffCase{0x5c09u, 8, 8, 17, 3, true, true, false, 3000,
                      "penalty_on_the_fly"}),
    [](const auto &info) { return std::string(info.param.name); });

TEST(ZipfSamplerDifferential, EmpiricalFrequencyTracksExactPmf)
{
    // Statistical leg: with s = 0.99 over a small key space, observed
    // frequencies over 200k draws must track the exact per-key
    // probabilities within a loose relative band for the head keys
    // (the tail is too thin for tight per-key bounds).
    constexpr std::uint64_t keys = 64;
    constexpr std::uint64_t draws = 200000;
    serve::ZipfianSampler zipf(keys, 0.99);

    std::vector<std::uint64_t> count(keys, 0);
    Rng rng(0x5eedu);
    for (std::uint64_t i = 0; i < draws; ++i)
        ++count[zipf(rng)];

    double mass = 0.0;
    for (std::uint64_t k = 0; k < 8; ++k) {
        double expect = zipf.probabilityOf(k) * draws;
        EXPECT_NEAR(static_cast<double>(count[k]), expect,
                    0.1 * expect + 3.0 * std::sqrt(expect))
            << "key " << k;
        mass += zipf.probabilityOf(k);
    }
    // s ~ 1 concentrates a large share of all draws on the head.
    EXPECT_GT(mass, 0.5);
    // Skew sanity: the head key dominates the median key.
    EXPECT_GT(count[0], 8 * count[keys / 2]);
}

// ---- Graph::fromEdges / transposed vs RefCsr --------------------------

namespace
{

/** Every arc of @p g, reversed. */
std::vector<Graph::Edge>
reversedArcs(const Graph &g)
{
    std::vector<Graph::Edge> rev;
    for (std::uint32_t v = 0; v < g.numVertices(); ++v)
        for (std::uint32_t n : g.neighbors(v))
            rev.emplace_back(n, v);
    return rev;
}

/**
 * Build @p edges with Graph::fromEdges and with the whole-list-sort
 * reference and compare the CSR arrays exactly; then compare
 * transposed() with the reference build of the reversed arcs.
 */
void
expectSameCsr(std::uint32_t nV, const std::vector<Graph::Edge> &edges,
              bool undirected)
{
    SCOPED_TRACE(undirected ? "undirected" : "directed");
    Graph g = Graph::fromEdges(nV, edges, undirected);
    check::RefCsr ref = check::RefCsr::fromEdges(nV, edges, undirected);
    EXPECT_EQ(g.numVertices(), nV);
    EXPECT_EQ(g.row(), ref.row);
    EXPECT_EQ(g.col(), ref.col);

    Graph t = g.transposed();
    check::RefCsr refT = check::RefCsr::fromEdges(nV, reversedArcs(g),
                                                  false);
    EXPECT_EQ(t.numVertices(), nV);
    EXPECT_EQ(t.row(), refT.row);
    EXPECT_EQ(t.col(), refT.col);
}

/** @p count arcs with both endpoints uniform over [0, nV). */
std::vector<Graph::Edge>
uniformEdges(Rng &gen, std::uint32_t nV, std::uint64_t count)
{
    std::vector<Graph::Edge> edges;
    for (std::uint64_t i = 0; i < count; ++i)
        edges.emplace_back(static_cast<std::uint32_t>(gen.below(nV)),
                           static_cast<std::uint32_t>(gen.below(nV)));
    return edges;
}

} // namespace

TEST(GraphBuildDifferential, SeededRandomLists)
{
    // From dense (most arcs repeat, many self-loops) to sparse (most
    // vertices isolated), in random order.
    struct Shape
    {
        std::uint32_t nV;
        std::uint64_t edges;
    };
    Rng gen(0x6ea7u);
    for (Shape s : {Shape{2, 40}, Shape{16, 2000}, Shape{300, 4000},
                    Shape{1000, 20000}, Shape{4096, 3000}}) {
        for (bool undirected : {false, true}) {
            SCOPED_TRACE("nV " + std::to_string(s.nV));
            expectSameCsr(s.nV, uniformEdges(gen, s.nV, s.edges),
                          undirected);
        }
    }
}

TEST(GraphBuildDifferential, SelfLoopsAndDuplicates)
{
    // Repeated arcs, self-loops, and arcs next to their reverse (which
    // collapse to one arc each way when undirected).
    const std::vector<Graph::Edge> mixed = {
        {3, 3}, {0, 0}, {1, 2}, {2, 1}, {1, 2}, {3, 3},
        {0, 3}, {0, 3}, {3, 0}, {2, 2}, {1, 2}, {0, 1}};
    const std::vector<Graph::Edge> loopsOnly = {{2, 2}, {0, 0}, {2, 2}};
    for (bool undirected : {false, true}) {
        expectSameCsr(4, mixed, undirected);
        expectSameCsr(4, loopsOnly, undirected);
    }
}

TEST(GraphBuildDifferential, UnsortedInput)
{
    // Descending order: every row is scattered back to front.
    std::vector<Graph::Edge> edges;
    for (std::uint32_t src = 64; src-- > 0;)
        for (std::uint32_t dst = 64; dst-- > 0;)
            if ((src * 7 + dst) % 5 == 0)
                edges.emplace_back(src, dst);
    for (bool undirected : {false, true})
        expectSameCsr(64, edges, undirected);
}

TEST(GraphBuildDifferential, IsolatedVerticesEmptyListsAndOneVertex)
{
    // Vertex 0, most middle vertices and a trailing run have no arc.
    const std::vector<Graph::Edge> sparse = {
        {5, 9}, {9, 40}, {40, 5}, {70, 41}, {41, 70}};
    for (bool undirected : {false, true}) {
        expectSameCsr(100, sparse, undirected);
        expectSameCsr(5, {}, undirected);
        expectSameCsr(0, {}, undirected);
        expectSameCsr(1, {}, undirected);
        expectSameCsr(1, {{0, 0}}, undirected);
    }
}

TEST(GraphBuildDifferential, HubRow)
{
    // One vertex with thousands of arcs, repeats included, shuffled
    // into a sparse rest, like an R-MAT hub.
    constexpr std::uint32_t nV = 4096;
    Rng gen(0x4b0bu);
    std::vector<Graph::Edge> edges = uniformEdges(gen, nV, 2000);
    for (int i = 0; i < 6000; ++i)
        edges.emplace_back(17, static_cast<std::uint32_t>(gen.below(nV)));
    for (std::size_t i = edges.size() - 1; i > 0; --i)
        std::swap(edges[i], edges[gen.below(i + 1)]);
    for (bool undirected : {false, true})
        expectSameCsr(nV, edges, undirected);
}

TEST(GraphBuildDeath, OutOfRangeEndpointPanicsBeforeAnyWrite)
{
    // Endpoints far past nV: a build that indexed a row with one before
    // the range check would fault instead of panicking. The bad arcs
    // come after valid ones, once as a source and once as a
    // destination that only the undirected build indexes.
    EXPECT_DEATH(Graph::fromEdges(4, {{0, 1}, {0xfffffff0u, 2}}, false),
                 "edge endpoint out of range");
    EXPECT_DEATH(Graph::fromEdges(4, {{0, 1}, {2, 0xfffffff0u}}, true),
                 "edge endpoint out of range");
}

} // namespace abndp
