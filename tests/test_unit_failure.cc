/**
 * @file
 * Unit-failure tolerance tests: the FaultModel liveness mask and buddy
 * re-homing, the recovery protocol (queue drain / re-inject,
 * delivery-ack redispatch), graceful degraded-mode scheduling under
 * every Table-2 NDP design, and bit-determinism of failure runs.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/config.hh"
#include "core/ndp_system.hh"
#include "driver/experiment.hh"
#include "fault/fault_model.hh"
#include "workloads/factory.hh"

namespace abndp
{

namespace
{

/** 2x2 mesh, 2 units/stack (8 units), 2 cores; checkers armed. */
SystemConfig
smallConfig(Design d)
{
    SystemConfig cfg;
    cfg.meshX = cfg.meshY = 2;
    cfg.unitsPerStack = 2;
    cfg.coresPerUnit = 2;
    cfg = applyDesign(cfg, d);
    cfg.checkInvariants = true;
    return cfg;
}

RunMetrics
runWorkload(const SystemConfig &cfg, const char *wlname = "pr")
{
    NdpSystem sys(cfg);
    auto wl = makeWorkload(WorkloadSpec::tiny(wlname));
    RunMetrics m = sys.run(*wl);
    EXPECT_TRUE(wl->verify());
    return m;
}

} // namespace

// ---- FaultModel liveness / re-homing ----------------------------------

TEST(FaultModelLiveness, MaskAndRehomeFollowMarks)
{
    auto cfg = smallConfig(Design::B);
    cfg.fault.unitFailure.units = {1, 2};
    cfg.validate();
    FaultModel fm(cfg);

    EXPECT_TRUE(fm.unitFailuresEnabled());
    EXPECT_FALSE(fm.anyUnitDown());
    for (UnitId u = 0; u < cfg.numUnits(); ++u)
        EXPECT_TRUE(fm.isLive(u));

    fm.markDown(1);
    fm.markDown(2);
    EXPECT_TRUE(fm.anyUnitDown());
    EXPECT_EQ(fm.downCount(), 2u);
    EXPECT_FALSE(fm.isLive(1));
    EXPECT_FALSE(fm.isLive(2));
    // Buddy = next live unit in id order, skipping dead ones.
    EXPECT_EQ(fm.rehomeOf(1), 3u);
    EXPECT_EQ(fm.rehomeOf(2), 3u);
    // A live unit re-homes to itself.
    EXPECT_EQ(fm.rehomeOf(0), 0u);

    // markDown is idempotent; markUp restores the unit.
    fm.markDown(1);
    EXPECT_EQ(fm.downCount(), 2u);
    fm.markUp(1);
    fm.markUp(2);
    EXPECT_FALSE(fm.anyUnitDown());
    EXPECT_TRUE(fm.isLive(1));
}

TEST(FaultModelLiveness, RehomeWrapsAroundIdSpace)
{
    auto cfg = smallConfig(Design::B);
    UnitId last = cfg.numUnits() - 1;
    cfg.fault.unitFailure.units = {last};
    cfg.validate();
    FaultModel fm(cfg);
    fm.markDown(last);
    EXPECT_EQ(fm.rehomeOf(last), 0u);
}

TEST(FaultModelLiveness, CountFromSeedIsDeterministic)
{
    auto cfg = smallConfig(Design::B);
    cfg.fault.unitFailure.count = 3;
    cfg.validate();
    FaultModel a(cfg), b(cfg);
    ASSERT_EQ(a.failedUnits().size(), 3u);
    EXPECT_EQ(a.failedUnits(), b.failedUnits());
    for (UnitId u : a.failedUnits())
        EXPECT_LT(u, cfg.numUnits());

    // The unit-failure draw has its own seed domain: link-fault and
    // straggler selections must be unaffected by enabling it.
    auto plain = smallConfig(Design::B);
    plain.validate();
    FaultModel base(plain);
    EXPECT_EQ(base.failedUnits().size(), 0u);
}

// ---- Recovery under every Table-2 NDP design --------------------------

class UnitFailureDesignRun : public ::testing::TestWithParam<Design>
{
};

TEST_P(UnitFailureDesignRun, PermanentMidRunKillCompletesAndVerifies)
{
    // A unit killed shortly into the run: the workload must still
    // complete, verify, and satisfy every invariant, including the
    // task-conservation-under-failure law (checkers panic otherwise).
    auto cfg = smallConfig(GetParam());
    cfg.fault.unitFailure.units = {3};
    cfg.fault.unitFailure.failAtNs = 100.0;
    RunMetrics m = runWorkload(cfg);
    EXPECT_GT(m.tasks, 0u);
    EXPECT_EQ(m.unitsFailed, 1u);
}

TEST_P(UnitFailureDesignRun, FailureRunsAreBitDeterministic)
{
    auto cfg = smallConfig(GetParam());
    cfg.fault.unitFailure.count = 2;
    cfg.fault.unitFailure.failAtNs = 150.0;
    RunMetrics a = runWorkload(cfg);
    RunMetrics b = runWorkload(cfg);
    EXPECT_EQ(a.ticks, b.ticks);
    EXPECT_EQ(a.tasks, b.tasks);
    EXPECT_EQ(a.interHops, b.interHops);
    EXPECT_EQ(a.tasksRecovered, b.tasksRecovered);
    EXPECT_EQ(a.tasksRedispatched, b.tasksRedispatched);
    EXPECT_EQ(a.recoveryTrafficBytes, b.recoveryTrafficBytes);
}

INSTANTIATE_TEST_SUITE_P(AllNdpDesigns, UnitFailureDesignRun,
                         ::testing::ValuesIn(ndpDesigns()),
                         [](const auto &info) {
                             return designToken(info.param);
                         });

// ---- Degraded-mode scheduling -----------------------------------------

TEST(UnitFailure, DeadFromStartRunsZeroTasks)
{
    // Killed at t=0, before any dispatch: the dead unit must never
    // execute a task, and the work initially staged on it must be
    // recovered onto live units.
    auto cfg = smallConfig(Design::O);
    cfg.fault.unitFailure.units = {3};
    cfg.fault.unitFailure.failAtNs = 0.0;
    NdpSystem sys(cfg);
    auto wl = makeWorkload(WorkloadSpec::tiny("pr"));
    RunMetrics m = sys.run(*wl);
    EXPECT_TRUE(wl->verify());
    EXPECT_EQ(sys.unit(3).tasksRun(), 0u);
    EXPECT_GT(m.tasksRecovered, 0u);
    EXPECT_GT(m.recoveryTrafficBytes, 0u);
    EXPECT_EQ(m.unitsFailed, 1u);
}

TEST(UnitFailure, TransientWindowRecoversTheUnit)
{
    // A transient down-window: the machine completes, and once the
    // unit is back up it picks up work again (it ran tasks despite
    // being dead from the very start of the run).
    auto cfg = smallConfig(Design::O);
    cfg.fault.unitFailure.units = {2};
    cfg.fault.unitFailure.failAtNs = 0.0;
    cfg.fault.unitFailure.recoverAtNs = 300.0;
    NdpSystem sys(cfg);
    auto wl = makeWorkload(WorkloadSpec::tiny("pr"));
    RunMetrics m = sys.run(*wl);
    EXPECT_TRUE(wl->verify());
    EXPECT_EQ(m.unitsFailed, 1u);
    EXPECT_GT(sys.unit(2).tasksRun(), 0u);
}

TEST(UnitFailure, FailureAfterRunEndNeverFires)
{
    auto cfg = smallConfig(Design::O);
    cfg.fault.unitFailure.units = {1};
    cfg.fault.unitFailure.failAtNs = 1e12; // far beyond any tiny run
    RunMetrics m = runWorkload(cfg);
    EXPECT_EQ(m.unitsFailed, 0u);
    EXPECT_EQ(m.tasksRecovered, 0u);
    EXPECT_EQ(m.recoveryTrafficBytes, 0u);
}

TEST(UnitFailure, ShedToADeadUnitMovesItsLoad)
{
    // Lb sheds ship untracked batches. Here two of them reach unit 0
    // after it died, so its buddy takes the tasks, and it must take
    // their scheduler load too: load left on the dead unit would skew
    // every later exchange snapshot (checkLoadDrained panics on it).
    auto cfg = smallConfig(Design::Hlb);
    cfg.sched.exchangeIntervalCycles = 1000;
    cfg.fault.unitFailure.count = 1;
    cfg.fault.unitFailure.failAtNs = 505.0;
    NdpSystem sys(cfg);
    auto wl = makeWorkload(WorkloadSpec::tiny("pr"));
    RunMetrics m = sys.run(*wl);
    EXPECT_TRUE(wl->verify());
    EXPECT_EQ(m.unitsFailed, 1u);
    for (UnitId u = 0; u < sys.numUnits(); ++u)
        EXPECT_EQ(sys.scheduler().trueW(u), 0.0) << "unit " << u;
}

// ---- Observability ----------------------------------------------------

TEST(UnitFailure, RecoveryStatsRegisteredOnlyWhenConfigured)
{
    // With a failure configured the registry grows a recovery group;
    // without one the dump must not mention it (golden dumps stay
    // byte-identical with failure injection off).
    auto on = smallConfig(Design::O);
    on.fault.unitFailure.units = {3};
    on.fault.unitFailure.failAtNs = 0.0;
    NdpSystem sysOn(on);
    auto wl = makeWorkload(WorkloadSpec::tiny("pr"));
    sysOn.run(*wl);
    std::ostringstream dumpOn;
    sysOn.statsRegistry().dump(dumpOn);
    EXPECT_NE(dumpOn.str().find("recovery.tasksRecovered"),
              std::string::npos);

    auto off = smallConfig(Design::O);
    NdpSystem sysOff(off);
    auto wl2 = makeWorkload(WorkloadSpec::tiny("pr"));
    sysOff.run(*wl2);
    std::ostringstream dumpOff;
    sysOff.statsRegistry().dump(dumpOff);
    EXPECT_EQ(dumpOff.str().find("recovery."), std::string::npos);
}

} // namespace abndp
