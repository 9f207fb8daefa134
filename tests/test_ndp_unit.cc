/**
 * @file
 * Unit tests for the NdpUnit component: construction, the barrier-time
 * queue swap, the scheduling/prefetch window reset invariants, and
 * timestamp invalidation of primary data.
 */

#include <gtest/gtest.h>

#include "core/ndp_system.hh"
#include "core/ndp_unit.hh"
#include "workloads/factory.hh"

namespace abndp
{

TEST(NdpUnit, InitBuildsCoresAndCaches)
{
    SystemConfig cfg;
    NdpUnit unit;
    unit.init(cfg, 7);
    EXPECT_EQ(unit.id(), 7u);
    ASSERT_EQ(unit.cores.size(), cfg.coresPerUnit);
    for (const auto &core : unit.cores) {
        EXPECT_FALSE(core.busy);
        EXPECT_NE(core.l1d, nullptr);
        EXPECT_NE(core.l1i, nullptr);
        EXPECT_NE(core.tlb, nullptr);
    }
    ASSERT_NE(unit.pb, nullptr);
    EXPECT_TRUE(unit.anyIdleCore());
    EXPECT_EQ(unit.busyCores(), 0u);
    EXPECT_EQ(unit.tasksRun(), 0u);
}

TEST(NdpUnit, BeginEpochSwapsStagedIntoLive)
{
    SystemConfig cfg;
    NdpUnit unit;
    unit.init(cfg, 0);

    // The queues carry handles; the tasks stay in the system's pool.
    for (std::uint32_t i = 0; i < 3; ++i)
        unit.stagedPending.push_back(TaskRef{i});
    for (std::uint32_t i = 3; i < 5; ++i)
        unit.stagedReady.push_back(TaskRef{i});

    EXPECT_EQ(unit.beginEpoch(), 5u);
    ASSERT_EQ(unit.pending.size(), 3u);
    ASSERT_EQ(unit.ready.size(), 2u);
    EXPECT_EQ(unit.pending.front(), TaskRef{0});
    EXPECT_EQ(unit.ready.front(), TaskRef{3});
    EXPECT_TRUE(unit.stagedPending.empty());
    EXPECT_TRUE(unit.stagedReady.empty());
}

TEST(NdpUnit, BeginEpochResetsWindowState)
{
    SystemConfig cfg;
    NdpUnit unit;
    unit.init(cfg, 0);
    unit.stagedReady.push_back(TaskRef{0});
    unit.prefetchedCount = 4;
    unit.stealBackoff = 1234;

    unit.beginEpoch();
    // The prefetch window restarts at the head of the new ready queue;
    // a stale count could exceed the queue and index out of bounds.
    EXPECT_EQ(unit.prefetchedCount, 0u);
    EXPECT_LE(unit.prefetchedCount, unit.ready.size());
    EXPECT_EQ(unit.stealBackoff, 0u);
}

TEST(NdpUnit, ResetTransientClearsInFlightFlags)
{
    SystemConfig cfg;
    NdpUnit unit;
    unit.init(cfg, 0);
    unit.schedBusy = true;
    unit.stealInFlight = true;
    unit.stealBackoff = 99;
    unit.resetTransient();
    EXPECT_FALSE(unit.schedBusy);
    EXPECT_FALSE(unit.stealInFlight);
    EXPECT_EQ(unit.stealBackoff, 0u);
}

TEST(NdpUnit, InvalidatePrimaryDataClearsPbAndL1d)
{
    SystemConfig cfg;
    NdpUnit unit;
    unit.init(cfg, 0);

    constexpr Addr block = 0x1000;
    unit.pb->fill(block, 10);
    unit.cores[0].l1d->insert(block);
    EXPECT_TRUE(unit.pb->peek(block));
    EXPECT_TRUE(unit.cores[0].l1d->contains(block));

    unit.invalidatePrimaryData();
    EXPECT_FALSE(unit.pb->peek(block));
    EXPECT_FALSE(unit.cores[0].l1d->contains(block));
}

TEST(NdpUnit, QueueWindowInvariantHoldsAtBarriers)
{
    // Run a scheduling-window design end to end and check that every
    // unit leaves the run with its Figure-4 queue state fully drained:
    // the epoch loop asserts emptiness at each barrier, so post-run
    // state reflects the last barrier's invariant.
    SystemConfig cfg = applyDesign(SystemConfig{}, Design::O);
    NdpSystem sys(cfg);
    auto wl = makeWorkload(WorkloadSpec::tiny("bfs"));
    RunMetrics m = sys.run(*wl);
    EXPECT_GT(m.tasks, 0u);
    EXPECT_TRUE(wl->verify());
    for (UnitId u = 0; u < sys.numUnits(); ++u) {
        NdpUnit &unit = sys.unit(u);
        EXPECT_TRUE(unit.pending.empty());
        EXPECT_TRUE(unit.ready.empty());
        EXPECT_TRUE(unit.stagedPending.empty());
        EXPECT_TRUE(unit.stagedReady.empty());
        EXPECT_LE(unit.prefetchedCount, unit.ready.size());
        EXPECT_FALSE(unit.schedBusy);
        EXPECT_FALSE(unit.stealInFlight);
        EXPECT_EQ(unit.busyCores(), 0u);
    }
}

} // namespace abndp
