/** @file Tests for the host-only baseline H. */

#include <gtest/gtest.h>

#include "driver/experiment.hh"
#include "host/host_system.hh"
#include "workloads/factory.hh"

namespace abndp
{

TEST(HostSystem, RunsAndVerifies)
{
    SystemConfig cfg;
    HostSystem host(cfg);
    auto wl = makeWorkload(WorkloadSpec::tiny("pr"));
    RunMetrics m = host.run(*wl);
    EXPECT_TRUE(wl->verify());
    EXPECT_GT(m.ticks, 0u);
    EXPECT_EQ(m.coreActiveTicks.size(), cfg.host.cores);
}

TEST(HostSystem, Deterministic)
{
    SystemConfig cfg;
    HostSystem a(cfg), b(cfg);
    auto wa = makeWorkload(WorkloadSpec::tiny("bfs"));
    auto wb = makeWorkload(WorkloadSpec::tiny("bfs"));
    EXPECT_EQ(a.run(*wa).ticks, b.run(*wb).ticks);
}

TEST(HostSystem, TaskPoolEndsDrained)
{
    // Each accepted task lives in the pool from enqueue to dispatch;
    // the epoch lists carry handles, and every slot is released.
    SystemConfig cfg;
    HostSystem host(cfg);
    auto wl = makeWorkload(WorkloadSpec::tiny("pr"));
    RunMetrics m = host.run(*wl);
    EXPECT_TRUE(wl->verify());
    EXPECT_GT(m.tasks, 0u);
    EXPECT_GT(host.taskPool().capacity(), 0u);
    EXPECT_EQ(host.taskPool().live(), 0u);
}

TEST(HostSystem, MaxEpochsCutKeepsOnlyStagedTasks)
{
    // The epoch that never runs keeps its staged children in the pool.
    SystemConfig cfg;
    cfg.maxEpochs = 1;
    HostSystem host(cfg);
    auto wl = makeWorkload(WorkloadSpec::tiny("pr"));
    RunMetrics m = host.run(*wl);
    EXPECT_EQ(m.epochs, 1u);
    EXPECT_GT(host.taskPool().live(), 0u);
    EXPECT_LE(host.taskPool().live(), m.tasks);
}

TEST(HostSystem, NdpBaselineOutperformsHost)
{
    // Section 7.1: the NDP baseline B is substantially faster than the
    // host-only H on these data-intensive workloads.
    SystemConfig base;
    WorkloadSpec spec; // bench-shaped input: power-law, edge factor 16
    spec.name = "pr";
    spec.scale = 13; // enough skewed work to exceed the host LLC benefit
    ExperimentOptions opts;
    opts.verify = false;
    RunMetrics h = runExperiment(base, Design::H, spec, opts);
    RunMetrics b = runExperiment(base, Design::B, spec, opts);
    EXPECT_GT(h.ticks, b.ticks);
}

TEST(HostSystemDeath, RunTwiceIsAnError)
{
    SystemConfig cfg;
    HostSystem host(cfg);
    auto wl = makeWorkload(WorkloadSpec::tiny("bfs"));
    host.run(*wl);
    auto wl2 = makeWorkload(WorkloadSpec::tiny("bfs"));
    EXPECT_DEATH(host.run(*wl2), "once");
}

} // namespace abndp
