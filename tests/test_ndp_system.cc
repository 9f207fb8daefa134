/** @file Integration tests of the full NDP system simulation. */

#include <gtest/gtest.h>

#include "core/ndp_system.hh"
#include "driver/experiment.hh"
#include "workloads/factory.hh"

namespace abndp
{

namespace
{

SystemConfig
tinySystem(Design d)
{
    SystemConfig cfg;
    return applyDesign(cfg, d);
}

} // namespace

TEST(NdpSystem, RunsPageRankAndVerifies)
{
    auto cfg = tinySystem(Design::B);
    NdpSystem sys(cfg);
    auto wl = makeWorkload(WorkloadSpec::tiny("pr"));
    RunMetrics m = sys.run(*wl);
    EXPECT_TRUE(wl->verify());
    EXPECT_GT(m.ticks, 0u);
    EXPECT_GT(m.tasks, 0u);
    EXPECT_GT(m.epochs, 0u);
    EXPECT_EQ(m.coreActiveTicks.size(), cfg.numCores());
}

TEST(NdpSystem, DeterministicAcrossRuns)
{
    for (Design d : {Design::B, Design::Sl, Design::O}) {
        auto cfg = tinySystem(d);
        NdpSystem a(cfg), b(cfg);
        auto wa = makeWorkload(WorkloadSpec::tiny("pr"));
        auto wb = makeWorkload(WorkloadSpec::tiny("pr"));
        RunMetrics ma = a.run(*wa);
        RunMetrics mb = b.run(*wb);
        EXPECT_EQ(ma.ticks, mb.ticks) << designName(d);
        EXPECT_EQ(ma.interHops, mb.interHops) << designName(d);
        EXPECT_EQ(ma.tasks, mb.tasks) << designName(d);
        EXPECT_EQ(ma.coreActiveTicks, mb.coreActiveTicks) << designName(d);
    }
}

TEST(NdpSystem, TaskCountIndependentOfDesign)
{
    std::uint64_t tasks_b = 0;
    for (Design d : {Design::B, Design::Sm, Design::Sl, Design::Sh,
                     Design::C, Design::O}) {
        auto cfg = tinySystem(d);
        NdpSystem sys(cfg);
        auto wl = makeWorkload(WorkloadSpec::tiny("bfs"));
        RunMetrics m = sys.run(*wl);
        if (d == Design::B)
            tasks_b = m.tasks;
        else
            EXPECT_EQ(m.tasks, tasks_b) << designName(d);
        EXPECT_TRUE(wl->verify()) << designName(d);
    }
}

TEST(NdpSystem, MaxEpochsCapsExecution)
{
    auto cfg = tinySystem(Design::B);
    cfg.maxEpochs = 2;
    NdpSystem sys(cfg);
    auto wl = makeWorkload(WorkloadSpec::tiny("pr"));
    RunMetrics m = sys.run(*wl);
    EXPECT_EQ(m.epochs, 2u);
    EXPECT_TRUE(wl->verify());
}

TEST(NdpSystem, WorkStealingActuallySteals)
{
    auto cfg = tinySystem(Design::Sl);
    NdpSystem sys(cfg);
    auto wl = makeWorkload(WorkloadSpec::tiny("pr"));
    RunMetrics m = sys.run(*wl);
    EXPECT_GT(m.stealAttempts, 0u);
    EXPECT_GT(m.stolenTasks, 0u);
    EXPECT_TRUE(wl->verify());
    // Each stolen batch hands its load estimate to the thief, which
    // dequeues it there, so every unit's true load drains to zero.
    for (UnitId u = 0; u < cfg.numUnits(); ++u)
        EXPECT_EQ(sys.scheduler().trueW(u), 0.0) << "unit " << u;
}

TEST(NdpSystem, HybridForwardsThroughSchedulingWindow)
{
    auto cfg = tinySystem(Design::O);
    NdpSystem sys(cfg);
    auto wl = makeWorkload(WorkloadSpec::tiny("pr"));
    RunMetrics m = sys.run(*wl);
    EXPECT_GT(m.forwardedTasks, 0u);
    EXPECT_GT(m.schedDecisions, 0u);
    EXPECT_TRUE(wl->verify());
}

TEST(NdpSystem, TravellerCacheGetsHits)
{
    auto cfg = tinySystem(Design::O);
    NdpSystem sys(cfg);
    auto wl = makeWorkload(WorkloadSpec::tiny("pr"));
    RunMetrics m = sys.run(*wl);
    EXPECT_GT(m.campHits, 0u);
    EXPECT_GT(m.cacheInserts, 0u);
    EXPECT_GT(m.campHitRate(), 0.1);
}

TEST(NdpSystem, NoCampActivityWithoutCache)
{
    auto cfg = tinySystem(Design::B);
    NdpSystem sys(cfg);
    auto wl = makeWorkload(WorkloadSpec::tiny("pr"));
    RunMetrics m = sys.run(*wl);
    EXPECT_EQ(m.campHits + m.campMisses, 0u);
}

TEST(NdpSystem, EnergyBreakdownIsPositiveAndConsistent)
{
    auto cfg = tinySystem(Design::O);
    NdpSystem sys(cfg);
    auto wl = makeWorkload(WorkloadSpec::tiny("pr"));
    RunMetrics m = sys.run(*wl);
    EXPECT_GT(m.energy.coreSramPj, 0.0);
    EXPECT_GT(m.energy.dramMemPj, 0.0);
    EXPECT_GT(m.energy.dramCachePj, 0.0);
    EXPECT_GT(m.energy.netPj, 0.0);
    EXPECT_GT(m.energy.staticPj, 0.0);
    EXPECT_NEAR(m.energy.total(),
                m.energy.coreSramPj + m.energy.dram() + m.energy.netPj
                    + m.energy.staticPj,
                1e-6);
}

TEST(NdpSystem, CoreActivityNeverExceedsRunLength)
{
    auto cfg = tinySystem(Design::Sl);
    NdpSystem sys(cfg);
    auto wl = makeWorkload(WorkloadSpec::tiny("pr"));
    RunMetrics m = sys.run(*wl);
    for (Tick t : m.coreActiveTicks)
        EXPECT_LE(t, m.ticks);
    EXPECT_LE(m.utilization(), 1.0);
    EXPECT_GE(m.imbalance(), 1.0);
}

TEST(NdpSystemDeath, RunTwiceIsAnError)
{
    auto cfg = tinySystem(Design::B);
    NdpSystem sys(cfg);
    auto wl = makeWorkload(WorkloadSpec::tiny("bfs"));
    sys.run(*wl);
    auto wl2 = makeWorkload(WorkloadSpec::tiny("bfs"));
    EXPECT_DEATH(sys.run(*wl2), "once");
}

} // namespace abndp
