/**
 * @file
 * Death-test coverage of the simulator's fatal()/panic() paths that a
 * return value cannot show: validate() and NdpSystem's constructor
 * exiting on a broken config rule (the rules themselves are one table
 * in test_config_validation.cc), the name parsers, the serving driver,
 * and the watchdog/deadlock diagnostic dump. The event queue's own
 * death paths (schedule-into-the-past panic; its capacity limit is a
 * compile-time callbackFits rejection) live in test_event_queue.cc.
 */

#include <gtest/gtest.h>

#include "common/config.hh"
#include "core/ndp_system.hh"
#include "driver/experiment.hh"
#include "workloads/factory.hh"

namespace abndp
{

namespace
{

/** Valid baseline without the Traveller Cache. */
SystemConfig
plainConfig()
{
    return applyDesign(SystemConfig{}, Design::B);
}

/** Valid baseline with a serving stream enabled. */
SystemConfig
servingConfig()
{
    auto cfg = plainConfig();
    cfg.serving.requests = 100;
    return cfg;
}

} // namespace

// ---- validate() and NdpSystem: the fatal() wrapper --------------------

TEST(ConfigValidateDeath, ValidateExitsWithTheFirstBrokenRule)
{
    auto cfg = plainConfig();
    cfg.meshX = 0;          // the first rule
    cfg.coreFreqGHz = 0.0;  // a later rule
    ASSERT_EQ(cfg.validationError(), "mesh dimensions must be nonzero");
    EXPECT_EXIT(cfg.validate(), ::testing::ExitedWithCode(1),
                "^fatal: mesh dimensions must be nonzero\n$");
}

TEST(ConfigValidateDeath, NdpSystemRefusesABrokenConfig)
{
    auto cfg = plainConfig();
    cfg.prefetchBufBytes = 0;
    EXPECT_EXIT(NdpSystem{cfg}, ::testing::ExitedWithCode(1),
                "fatal: prefetchBufBytes");
}

// ---- name parsers -------------------------------------------------------

TEST(ConfigValidateDeath, RejectsUnknownBackendNames)
{
    EXPECT_DEATH(memBackendFromName("hbm3"), "unknown memory backend");
    EXPECT_DEATH(pagePolicyFromName("lazy"), "unknown page policy");
    EXPECT_DEATH(dramAddrMapFromName("rbx"), "unknown dram address map");
}

TEST(ConfigValidateDeath, RejectsUnknownLbTierNames)
{
    EXPECT_DEATH(lbTierFromName("bogus"), "unknown lb tier");
}

TEST(ConfigValidateDeath, UnknownDesignPanics)
{
    EXPECT_DEATH(designName(static_cast<Design>(99)), "unknown design");
}

// ---- serving driver fatal paths ---------------------------------------

TEST(ServingDeath, HostDesignCannotServe)
{
    auto cfg = servingConfig();
    EXPECT_DEATH(runExperiment(cfg, Design::H,
                               WorkloadSpec::tiny("kv"), {}),
                 "design H cannot run serving mode");
}

TEST(ServingDeath, NonQueryServiceWorkloadCannotServe)
{
    auto cfg = servingConfig();
    NdpSystem sys(cfg);
    auto wl = makeWorkload(WorkloadSpec::tiny("pr"));
    EXPECT_DEATH(sys.run(*wl), "cannot be served");
}

TEST(ServingDeath, UnsustainableRateTripsWatchdog)
{
    // Overdriving a tiny machine with an unbounded admission window:
    // the watchdog converts the silent queue explosion into a fatal
    // diagnostic pointing at the arrival rate.
    auto cfg = servingConfig();
    cfg.serving.requests = 200000;
    cfg.serving.ratePerUs = 10000.0;
    cfg.serving.maxOutstanding = 0;
    cfg.fault.watchdog.maxEpochEvents = 200000;
    NdpSystem sys(cfg);
    auto wl = makeWorkload(WorkloadSpec::tiny("kv"));
    EXPECT_DEATH(sys.run(*wl), "arrival rate");
}

// ---- watchdog / deadlock diagnostic dump -----------------------------

TEST(WatchdogDeath, BudgetOverrunDumpsDiagnostics)
{
    auto cfg = plainConfig();
    cfg.fault.watchdog.maxEpochEvents = 3; // far below one real epoch
    NdpSystem sys(cfg);
    auto wl = makeWorkload(WorkloadSpec::tiny("pr"));
    EXPECT_DEATH(sys.run(*wl), "exceeded its budget");
}

TEST(WatchdogDeath, DumpListsPerUnitQueueDepths)
{
    auto cfg = plainConfig();
    cfg.fault.watchdog.maxEpochTicks = 10;
    NdpSystem sys(cfg);
    auto wl = makeWorkload(WorkloadSpec::tiny("pr"));
    EXPECT_DEATH(sys.run(*wl), "per-unit queue depths");
}

} // namespace abndp
