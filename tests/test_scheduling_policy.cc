/**
 * @file
 * Unit tests for the SchedulingPolicy strategy objects: keep/forward
 * decisions on a fixed task stream, the window/stealing capability
 * flags each Table-2 composition advertises, and delegation through
 * the work-stealing decorator.
 */

#include <gtest/gtest.h>

#include <memory>

#include "cache/camp_mapping.hh"
#include "mem/address_map.hh"
#include "net/topology.hh"
#include "sched/policies/local_policy.hh"
#include "sched/policies/mem_match_policy.hh"
#include "sched/policies/work_stealing_policy.hh"
#include "sched/scheduler.hh"

namespace abndp
{

namespace
{

struct PolicyFixture
{
    explicit PolicyFixture(SchedPolicy policy, bool stealing = false,
                           CacheStyle style = CacheStyle::None)
    {
        cfg.sched.policy = policy;
        cfg.sched.workStealing = stealing;
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

TEST(SchedulingPolicy, LocalAlwaysKeepsAtMainHome)
{
    PolicyFixture f(SchedPolicy::Colocate);
    LocalPolicy local;
    EXPECT_STREQ(local.name(), "local");
    EXPECT_FALSE(local.usesSchedulingWindow());
    EXPECT_FALSE(local.stealing());
    // A fixed stream of tasks from different creators: placement is
    // the main element's home every time, never the creator.
    for (UnitId home : {0u, 7u, 42u, 99u}) {
        Task t = f.taskOn(home, {1, 2});
        for (UnitId creator : {0u, 3u, 120u})
            EXPECT_EQ(local.choose(*f.sched, t, creator), home);
    }
}

TEST(SchedulingPolicy, MemMatchForwardsToDataMajority)
{
    PolicyFixture f(SchedPolicy::LowestDistance);
    MemMatchPolicy mm;
    EXPECT_STREQ(mm.name(), "memmatch");
    EXPECT_FALSE(mm.usesSchedulingWindow());
    // Main element at unit 0 but the bulk of the reads live in the far
    // corner stack: the policy forwards there instead of keeping.
    Task t = f.taskOn(0, {120, 121, 122, 123, 124});
    UnitId dst = mm.choose(*f.sched, t, 0);
    EXPECT_TRUE(f.topo->sameStack(dst, 120));
    // All data local to the creator: the task is kept.
    Task local = f.taskOn(5);
    EXPECT_EQ(mm.choose(*f.sched, local, 5), 5u);
}

TEST(SchedulingPolicy, ConfiguredPolicyMatchesEnum)
{
    PolicyFixture b(SchedPolicy::Colocate);
    EXPECT_STREQ(b.sched->policy().name(), "local");
    EXPECT_FALSE(b.sched->usesSchedulingWindow());
    EXPECT_FALSE(b.sched->stealingEnabled());

    PolicyFixture sm(SchedPolicy::LowestDistance);
    EXPECT_STREQ(sm.sched->policy().name(), "memmatch");
    EXPECT_FALSE(sm.sched->usesSchedulingWindow());

    PolicyFixture sh(SchedPolicy::Hybrid);
    EXPECT_STREQ(sh.sched->policy().name(), "hybrid");
    EXPECT_TRUE(sh.sched->usesSchedulingWindow());
    EXPECT_FALSE(sh.sched->stealingEnabled());
}

TEST(SchedulingPolicy, StealingDecoratorDelegatesPlacement)
{
    PolicyFixture f(SchedPolicy::LowestDistance, /*stealing=*/true);
    const SchedulingPolicy &p = f.sched->policy();
    EXPECT_STREQ(p.name(), "memmatch+steal");
    EXPECT_TRUE(f.sched->stealingEnabled());
    EXPECT_FALSE(f.sched->usesSchedulingWindow());
    ASSERT_NE(p.inner(), nullptr);
    EXPECT_STREQ(p.inner()->name(), "memmatch");

    // The decorator must not change placement: compare against a bare
    // memmatch scheduler on the same task stream.
    PolicyFixture bare(SchedPolicy::LowestDistance);
    for (UnitId home : {0u, 33u, 77u}) {
        Task td = f.taskOn(home, {home, 120, 121});
        Task tb = bare.taskOn(home, {home, 120, 121});
        EXPECT_EQ(f.sched->choose(td, 2), bare.sched->choose(tb, 2));
    }
}

TEST(SchedulingPolicy, HybridKeepsWhenBalancedForwardsWhenLoaded)
{
    PolicyFixture f(SchedPolicy::Hybrid);
    // Uniform load: data locality wins, the home keeps the task.
    for (UnitId u = 0; u < f.sched->unitCount(); ++u)
        f.sched->onEnqueued(u, 100.0);
    f.sched->exchangeSnapshot();
    Task local = f.taskOn(9);
    EXPECT_EQ(f.sched->choose(local, 9), 9u);

    // Overload the home massively: after a snapshot refresh the
    // costload term forwards a home-bound task created elsewhere.
    PolicyFixture g(SchedPolicy::Hybrid);
    for (UnitId u = 0; u < g.sched->unitCount(); ++u)
        g.sched->onEnqueued(u, u == 9 ? 100000.0 : 10.0);
    g.sched->exchangeSnapshot();
    Task t = g.taskOn(9);
    EXPECT_NE(g.sched->choose(t, 3), 9u);
}

} // namespace abndp
