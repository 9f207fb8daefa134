/** @file Tests for the task scheduling policies (Eq. 1-3). */

#include <gtest/gtest.h>

#include <memory>

#include "cache/camp_mapping.hh"
#include "mem/address_map.hh"
#include "net/topology.hh"
#include "sched/scheduler.hh"

namespace abndp
{

namespace
{

struct SchedFixture
{
    explicit SchedFixture(SchedPolicy policy,
                          CacheStyle style = CacheStyle::None)
    {
        cfg.sched.policy = policy;
        cfg.traveller.style = style;
        cfg.sched.hybridAlpha = 3.0;
        cfg.sched.autoAlpha = false;
        topo = std::make_unique<Topology>(cfg);
        amap = std::make_unique<AddressMap>(cfg);
        camps = std::make_unique<CampMapping>(cfg, *topo, *amap);
        sched = std::make_unique<Scheduler>(cfg, *topo, *camps);
    }

    Task
    taskOn(UnitId home, std::initializer_list<UnitId> reads = {})
    {
        Task t;
        t.hint.data.push_back(amap->unitBase(home) + 64);
        t.mainHome = home;
        for (UnitId r : reads)
            t.hint.data.push_back(amap->unitBase(r) + 64);
        t.loadEstimate = sched->estimateLoad(t);
        return t;
    }

    SystemConfig cfg;
    std::unique_ptr<Topology> topo;
    std::unique_ptr<AddressMap> amap;
    std::unique_ptr<CampMapping> camps;
    std::unique_ptr<Scheduler> sched;
};

} // namespace

TEST(Scheduler, ColocatePicksMainHome)
{
    SchedFixture f(SchedPolicy::Colocate);
    Task t = f.taskOn(77, {1, 2, 3});
    EXPECT_EQ(f.sched->choose(t, 5), 77u);
}

TEST(Scheduler, LowestDistanceSingleAddressPicksHome)
{
    SchedFixture f(SchedPolicy::LowestDistance);
    Task t = f.taskOn(42);
    EXPECT_EQ(f.sched->choose(t, 0), 42u);
}

TEST(Scheduler, LowestDistancePrefersMajorityStack)
{
    SchedFixture f(SchedPolicy::LowestDistance);
    // Main element on unit 0 but most reads live in units 120..122
    // (far corner stack); the lowest-distance unit is one of those.
    Task t = f.taskOn(0, {120, 121, 122, 123, 124});
    UnitId dst = f.sched->choose(t, 0);
    EXPECT_TRUE(f.topo->sameStack(dst, 120));
}

TEST(Scheduler, HybridStaysHomeWhenBalanced)
{
    SchedFixture f(SchedPolicy::Hybrid);
    // Uniform load everywhere.
    for (UnitId u = 0; u < 128; ++u)
        f.sched->onEnqueued(u, 100.0);
    f.sched->exchangeSnapshot();
    Task t = f.taskOn(42);
    EXPECT_EQ(f.sched->choose(t, 42), 42u);
}

TEST(Scheduler, HybridAvoidsOverloadedHome)
{
    SchedFixture f(SchedPolicy::Hybrid);
    // Home unit 42 is massively overloaded; everyone else idle-ish.
    for (UnitId u = 0; u < 128; ++u)
        f.sched->onEnqueued(u, u == 42 ? 100000.0 : 10.0);
    f.sched->exchangeSnapshot();
    Task t = f.taskOn(42);
    UnitId dst = f.sched->choose(t, 7);
    EXPECT_NE(dst, 42u);
}

TEST(Scheduler, HybridWeightBalancesDistanceAndLoad)
{
    // With B = 3 * Dinter, an idle unit can be up to ~3 hops more
    // distant and still win over a fully loaded unit (Section 5.2).
    SchedFixture f(SchedPolicy::Hybrid);
    EXPECT_DOUBLE_EQ(f.sched->hybridWeight(), 30.0);
}

TEST(Scheduler, EstimateLoadUsesWorkloadHintWhenPresent)
{
    SchedFixture f(SchedPolicy::Hybrid);
    Task t = f.taskOn(0);
    t.hint.workload = 777;
    EXPECT_DOUBLE_EQ(f.sched->estimateLoad(t), 777.0);
}

TEST(Scheduler, EstimateLoadGrowsWithHintSize)
{
    SchedFixture f(SchedPolicy::Hybrid);
    Task small = f.taskOn(0);
    Task big = f.taskOn(0, {1, 2, 3, 4, 5, 6, 7});
    EXPECT_GT(f.sched->estimateLoad(big), f.sched->estimateLoad(small));
}

TEST(Scheduler, WBookkeepingRoundTrips)
{
    SchedFixture f(SchedPolicy::Hybrid);
    f.sched->onEnqueued(3, 50.0);
    EXPECT_DOUBLE_EQ(f.sched->trueW(3), 50.0);
    f.sched->onDequeued(3, 50.0);
    EXPECT_DOUBLE_EQ(f.sched->trueW(3), 0.0);
    // Underflow clamps at zero.
    f.sched->onDequeued(3, 10.0);
    EXPECT_DOUBLE_EQ(f.sched->trueW(3), 0.0);
}

TEST(Scheduler, StealMovesW)
{
    SchedFixture f(SchedPolicy::LowestDistance);
    f.sched->onEnqueued(1, 80.0);
    f.sched->onStolen(1, 2, 30.0);
    EXPECT_DOUBLE_EQ(f.sched->trueW(1), 50.0);
    EXPECT_DOUBLE_EQ(f.sched->trueW(2), 30.0);
}

TEST(Scheduler, SnapshotIsStaleUntilExchange)
{
    SchedFixture f(SchedPolicy::Hybrid);
    f.sched->onEnqueued(9, 500.0);
    EXPECT_DOUBLE_EQ(f.sched->snapshotW(9), 0.0);
    f.sched->exchangeSnapshot();
    EXPECT_DOUBLE_EQ(f.sched->snapshotW(9), 500.0);
}

TEST(Scheduler, CampAwareHybridCanPickACampLocation)
{
    SchedFixture f(SchedPolicy::Hybrid, CacheStyle::TravellerSramTags);
    // Overload the home so the task must move; with camp-aware costmem
    // the destination should be (or sit near) one of the candidates.
    Addr addr = f.amap->unitBase(0) + 64;
    for (UnitId u = 0; u < 128; ++u)
        f.sched->onEnqueued(u, u == 0 ? 100000.0 : 10.0);
    f.sched->exchangeSnapshot();

    Task t;
    t.hint.data.push_back(addr);
    t.mainHome = 0;
    t.loadEstimate = f.sched->estimateLoad(t);
    UnitId dst = f.sched->choose(t, 0);
    EXPECT_NE(dst, 0u);

    CandidateList cl;
    f.camps->candidates(addr, cl);
    double d_best = 1e18;
    for (std::uint32_t c = 0; c < cl.n; ++c)
        d_best = std::min(d_best, f.topo->distanceCost(dst, cl.loc[c]));
    // The chosen unit is close to some candidate caching location
    // (within the same stack), not an arbitrary far unit.
    EXPECT_LE(d_best, f.topo->intraCost());
}

TEST(Scheduler, ForwardedUpdatesViewsAndTrueW)
{
    SchedFixture f(SchedPolicy::Hybrid);
    f.sched->onEnqueued(4, 60.0);
    f.sched->onForwarded(4, 9, 60.0);
    EXPECT_DOUBLE_EQ(f.sched->trueW(4), 0.0);
    EXPECT_DOUBLE_EQ(f.sched->trueW(9), 60.0);
}

TEST(Scheduler, DecisionCounterIncrements)
{
    SchedFixture f(SchedPolicy::Colocate);
    Task t = f.taskOn(1);
    f.sched->choose(t, 0);
    f.sched->choose(t, 0);
    EXPECT_EQ(f.sched->decisions(), 2u);
}

} // namespace abndp
