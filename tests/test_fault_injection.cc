/**
 * @file
 * Tests of the deterministic fault & straggler injection subsystem:
 * bit-determinism under every injector, exact no-op at zero rates,
 * workload correctness under degradation, graceful-degradation steering,
 * and the epoch watchdog. The FaultConfig rules are rows of the config
 * rule table (test_config_validation.cc).
 */

#include <gtest/gtest.h>

#include "core/ndp_system.hh"
#include "driver/experiment.hh"
#include "fault/fault_model.hh"
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

/** Run a tiny workload under @p cfg and return its metrics. */
RunMetrics
runTiny(const SystemConfig &cfg, const std::string &wl = "pr")
{
    NdpSystem sys(cfg);
    auto workload = makeWorkload(WorkloadSpec::tiny(wl));
    return sys.run(*workload);
}

FaultConfig
stragglerFaults(std::uint32_t count, double derate)
{
    FaultConfig f;
    f.straggler.count = count;
    f.straggler.computeDerate = derate;
    f.straggler.bandwidthDerate = derate;
    return f;
}

void
expectIdentical(const RunMetrics &a, const RunMetrics &b,
                const std::string &what)
{
    EXPECT_EQ(a.ticks, b.ticks) << what;
    EXPECT_EQ(a.tasks, b.tasks) << what;
    EXPECT_EQ(a.epochs, b.epochs) << what;
    EXPECT_EQ(a.interHops, b.interHops) << what;
    EXPECT_EQ(a.intraTraversals, b.intraTraversals) << what;
    EXPECT_EQ(a.coreActiveTicks, b.coreActiveTicks) << what;
    EXPECT_EQ(a.stolenTasks, b.stolenTasks) << what;
    EXPECT_EQ(a.forwardedTasks, b.forwardedTasks) << what;
    EXPECT_EQ(a.dramReads, b.dramReads) << what;
    EXPECT_EQ(a.netDropped, b.netDropped) << what;
    EXPECT_EQ(a.netRetries, b.netRetries) << what;
    EXPECT_EQ(a.dramEccRetries, b.dramEccRetries) << what;
}

} // namespace

TEST(FaultModel, ResolvesStragglerSetDeterministically)
{
    auto cfg = tinySystem(Design::O);
    cfg.fault.straggler.count = 5;
    cfg.fault.straggler.computeDerate = 0.5;
    FaultModel a(cfg), b(cfg);
    ASSERT_EQ(a.stragglers().size(), 5u);
    EXPECT_EQ(a.stragglers(), b.stragglers());
    for (UnitId u : a.stragglers()) {
        EXPECT_LT(u, cfg.numUnits());
        EXPECT_TRUE(a.isStraggler(u));
    }

    // A different seed picks a different set (with near certainty for
    // 5 out of 128 units; this seed pair is known-good).
    auto cfg2 = cfg;
    cfg2.seed = cfg.seed + 1;
    FaultModel c(cfg2);
    EXPECT_NE(a.stragglers(), c.stragglers());
}

TEST(FaultModel, ExplicitUnitListTakesPrecedence)
{
    auto cfg = tinySystem(Design::O);
    cfg.fault.straggler.units = {7, 3, 3, 11};
    cfg.fault.straggler.count = 99; // ignored
    cfg.fault.straggler.computeDerate = 0.25;
    FaultModel fm(cfg);
    EXPECT_EQ(fm.stragglers(), (std::vector<UnitId>{3, 7, 11}));
    EXPECT_TRUE(fm.isStraggler(3));
    EXPECT_FALSE(fm.isStraggler(4));
    EXPECT_DOUBLE_EQ(fm.computeSlowdown(3, 0), 4.0);
    EXPECT_DOUBLE_EQ(fm.computeSlowdown(4, 0), 1.0);
    EXPECT_DOUBLE_EQ(fm.speedFactor(3, 0), 0.25);
}

TEST(FaultModel, ActivityWindowGatesDerating)
{
    auto cfg = tinySystem(Design::O);
    cfg.fault.straggler.units = {0};
    cfg.fault.straggler.computeDerate = 0.5;
    cfg.fault.straggler.windowStartNs = 100.0;
    cfg.fault.straggler.windowEndNs = 200.0;
    FaultModel fm(cfg);
    const Tick ns = ticksPerNs;
    EXPECT_DOUBLE_EQ(fm.computeSlowdown(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(fm.computeSlowdown(0, 100 * ns), 2.0);
    EXPECT_DOUBLE_EQ(fm.computeSlowdown(0, 199 * ns), 2.0);
    EXPECT_DOUBLE_EQ(fm.computeSlowdown(0, 200 * ns), 1.0);
}

TEST(FaultInjection, DeterministicUnderEveryInjector)
{
    std::vector<std::pair<std::string, FaultConfig>> points;
    points.emplace_back("straggler", stragglerFaults(4, 0.5));
    {
        FaultConfig f;
        f.link.count = 6;
        f.link.dropProb = 0.05;
        f.link.extraLatencyNs = 20.0;
        points.emplace_back("link", f);
    }
    {
        FaultConfig f;
        f.dram.eccRetryProb = 0.01;
        points.emplace_back("dram", f);
    }
    {
        FaultConfig f = stragglerFaults(4, 0.5);
        f.link.count = 6;
        f.link.dropProb = 0.05;
        f.dram.eccRetryProb = 0.01;
        points.emplace_back("combined", f);
    }

    for (Design d : {Design::B, Design::O}) {
        for (const auto &[name, f] : points) {
            auto cfg = tinySystem(d);
            cfg.fault = f;
            RunMetrics a = runTiny(cfg);
            RunMetrics b = runTiny(cfg);
            expectIdentical(a, b,
                            std::string(designName(d)) + "/" + name);
        }
    }
}

TEST(FaultInjection, ZeroRateFaultsMatchNoFaultRunExactly)
{
    for (Design d : {Design::B, Design::O}) {
        auto base = tinySystem(d);
        RunMetrics clean = runTiny(base);

        // Every knob touched, every rate at its no-op value: derates
        // 1.0, dropProb 0, eccRetryProb 0, plus a watchdog budget far
        // above the epoch cost. Must be bit-identical to no faults.
        auto cfg = base;
        cfg.fault.straggler.count = 8;
        cfg.fault.straggler.computeDerate = 1.0;
        cfg.fault.straggler.bandwidthDerate = 1.0;
        cfg.fault.link.count = 8;
        cfg.fault.link.dropProb = 0.0;
        cfg.fault.link.extraLatencyNs = 0.0;
        cfg.fault.dram.eccRetryProb = 0.0;
        cfg.fault.watchdog.maxEpochTicks = Tick(1) << 60;
        cfg.fault.watchdog.maxEpochEvents = 1ull << 60;
        RunMetrics zeroed = runTiny(cfg);
        expectIdentical(clean, zeroed, designName(d));
        EXPECT_EQ(zeroed.netDropped, 0u);
        EXPECT_EQ(zeroed.netRetries, 0u);
        EXPECT_EQ(zeroed.dramEccRetries, 0u);
    }
}

TEST(FaultInjection, AllWorkloadsVerifyUnderStragglers)
{
    for (const auto &name : allWorkloadNames()) {
        auto cfg = tinySystem(Design::O);
        cfg.fault = stragglerFaults(6, 0.4);
        NdpSystem sys(cfg);
        auto wl = makeWorkload(WorkloadSpec::tiny(name));
        RunMetrics m = sys.run(*wl);
        EXPECT_TRUE(wl->verify()) << name;
        EXPECT_GT(m.tasks, 0u) << name;
    }
}

TEST(FaultInjection, StragglersSlowTheSystemDown)
{
    auto base = tinySystem(Design::B);
    RunMetrics clean = runTiny(base);

    auto cfg = base;
    cfg.fault = stragglerFaults(8, 0.25);
    RunMetrics degraded = runTiny(cfg);
    EXPECT_GT(degraded.ticks, clean.ticks);
    EXPECT_EQ(degraded.tasks, clean.tasks);
}

TEST(FaultInjection, HybridSchedulerSteersAwayFromStragglers)
{
    // Graceful degradation: under the load-aware hybrid policy the
    // derated units' effective load is scaled by 1/speed, so costload
    // steers tasks away and the straggler hit shrinks relative to the
    // locality-only placement that keeps feeding slow units.
    auto mk = [](Design d, bool faulty) {
        auto cfg = tinySystem(d);
        if (faulty)
            cfg.fault = stragglerFaults(8, 0.25);
        return runTiny(cfg);
    };
    const double slowSm = static_cast<double>(mk(Design::Sm, true).ticks)
        / static_cast<double>(mk(Design::Sm, false).ticks);
    const double slowO = static_cast<double>(mk(Design::O, true).ticks)
        / static_cast<double>(mk(Design::O, false).ticks);
    EXPECT_LT(slowO, slowSm);
}

TEST(FaultInjection, LinkFaultsCountRetriesAndStillVerify)
{
    auto cfg = tinySystem(Design::O);
    cfg.fault.link.count = 16;
    cfg.fault.link.dropProb = 0.2;
    cfg.fault.link.extraLatencyNs = 10.0;
    NdpSystem sys(cfg);
    auto wl = makeWorkload(WorkloadSpec::tiny("bfs"));
    RunMetrics m = sys.run(*wl);
    EXPECT_TRUE(wl->verify());
    EXPECT_GT(m.netDropped, 0u);
    EXPECT_GE(m.netRetries, m.netDropped);
}

TEST(FaultInjection, DramEccRetriesAreCountedAndSlowAccesses)
{
    auto base = tinySystem(Design::B);
    RunMetrics clean = runTiny(base);

    auto cfg = base;
    cfg.fault.dram.eccRetryProb = 0.05;
    cfg.fault.dram.eccRetryNs = 200.0;
    RunMetrics m = runTiny(cfg);
    EXPECT_GT(m.dramEccRetries, 0u);
    EXPECT_GT(m.ticks, clean.ticks);
}

TEST(FaultInjection, WatchdogFiresOnTinyBudgetWithDiagnostics)
{
    auto cfg = tinySystem(Design::B);
    cfg.fault.watchdog.maxEpochTicks = 10; // far below one real epoch
    EXPECT_DEATH(runTiny(cfg), "watchdog");

    auto cfg2 = tinySystem(Design::B);
    cfg2.fault.watchdog.maxEpochEvents = 3;
    EXPECT_DEATH(runTiny(cfg2), "watchdog");
}

TEST(FaultInjection, WatchdogQuietWithGenerousBudget)
{
    auto base = tinySystem(Design::O);
    RunMetrics clean = runTiny(base);
    auto cfg = base;
    cfg.fault.watchdog.maxEpochTicks = Tick(1) << 60;
    RunMetrics m = runTiny(cfg);
    expectIdentical(clean, m, "watchdog-armed");
}

TEST(FaultInjection, ExperimentOptionsOverrideAppliesFaults)
{
    ExperimentOptions opts;
    opts.verify = true;
    opts.fault = stragglerFaults(4, 0.5);
    SystemConfig base;
    WorkloadSpec spec = WorkloadSpec::tiny("pr");
    RunMetrics faulty = runExperiment(base, Design::O, spec, opts);

    ExperimentOptions cleanOpts;
    cleanOpts.verify = true;
    RunMetrics clean = runExperiment(base, Design::O, spec, cleanOpts);
    // O partly schedules around the stragglers, so don't demand a
    // slowdown here — only that the override took effect.
    EXPECT_NE(faulty.ticks, clean.ticks);
    EXPECT_NE(faulty.coreActiveTicks, clean.coreActiveTicks);
}

} // namespace abndp
