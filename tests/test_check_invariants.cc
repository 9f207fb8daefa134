/**
 * @file
 * The machine invariant checkers (src/check): every conservation law
 * holds on real runs under every NDP design, checkers are purely
 * observational (stats dumps stay byte-identical on/off), and — via
 * perturbation — every checker provably fires on inconsistent state.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "check/check_context.hh"
#include "check/machine_checker.hh"
#include "core/ndp_system.hh"
#include "driver/experiment.hh"
#include "workloads/factory.hh"

namespace abndp
{

namespace
{

SystemConfig
smallConfig(Design d, bool check)
{
    SystemConfig cfg;
    cfg.meshX = cfg.meshY = 2;
    cfg.unitsPerStack = 2;
    cfg.coresPerUnit = 2;
    cfg = applyDesign(cfg, d);
    cfg.checkInvariants = check;
    return cfg;
}

/** Run pr-tiny under @p d and return the full registry dump. */
std::string
runAndDump(Design d, bool check, const char *wlname = "pr")
{
    auto cfg = smallConfig(d, check);
    NdpSystem sys(cfg);
    auto wl = makeWorkload(WorkloadSpec::tiny(wlname));
    sys.run(*wl);
    EXPECT_TRUE(wl->verify()) << designName(d);
    std::ostringstream oss;
    sys.statsRegistry().dump(oss);
    return oss.str();
}

} // namespace

// ---- CheckContext mechanics -------------------------------------------

TEST(CheckContext, CollectsAndClearsViolations)
{
    check::CheckContext ctx;
    EXPECT_TRUE(ctx.clean());
    ctx.require(1 + 1 == 2, "arithmetic broke");
    EXPECT_TRUE(ctx.clean());
    ctx.require(false, "first: ", 42);
    ctx.fail("second");
    ASSERT_EQ(ctx.violations().size(), 2u);
    EXPECT_EQ(ctx.violations()[0], "first: 42");
    EXPECT_EQ(ctx.violations()[1], "second");
    ctx.clearViolations();
    EXPECT_TRUE(ctx.clean());
}

TEST(CheckContext, CollectModeSuppressesRaise)
{
    check::CheckContext ctx;
    ctx.setCollect(true);
    ctx.fail("kept for inspection");
    ctx.raiseIfAny("test phase"); // must not abort
    EXPECT_EQ(ctx.violations().size(), 1u);
}

TEST(CheckContextDeath, RaisePanicsWithAllViolations)
{
    check::CheckContext ctx;
    ctx.fail("broken conservation law");
    EXPECT_DEATH(ctx.raiseIfAny("epoch end"),
                 "machine invariant violation.*epoch end.*broken "
                 "conservation law");
}

// ---- Perturbation: every primitive checker fires ----------------------

TEST(CheckerPerturbation, TaskConservationFires)
{
    check::CheckContext ctx;
    check::MachineChecker::checkTaskConservation(ctx, 3, 100, 100);
    EXPECT_TRUE(ctx.clean());
    check::MachineChecker::checkTaskConservation(ctx, 3, 100, 99);
    ASSERT_FALSE(ctx.clean());
    EXPECT_NE(ctx.violations()[0].find("task conservation"),
              std::string::npos);
}

TEST(CheckerPerturbation, OccupancyReconciliationFires)
{
    check::CheckContext ctx;
    check::MachineChecker::checkOccupancy(ctx, "traveller cache", 0,
                                          7, 10, 3, 64);
    EXPECT_TRUE(ctx.clean());
    // Occupancy disagrees with the insert/evict delta.
    check::MachineChecker::checkOccupancy(ctx, "traveller cache", 0,
                                          6, 10, 3, 64);
    ASSERT_EQ(ctx.violations().size(), 1u);
    EXPECT_NE(ctx.violations()[0].find("occupancy 6"),
              std::string::npos);
    ctx.clearViolations();
    // Occupancy exceeds capacity (and the delta, separately).
    check::MachineChecker::checkOccupancy(ctx, "prefetch buffer", 2,
                                          65, 70, 5, 64);
    ASSERT_EQ(ctx.violations().size(), 1u);
    EXPECT_NE(ctx.violations()[0].find("exceeds capacity"),
              std::string::npos);
}

TEST(CheckerPerturbation, HitMissTotalsFire)
{
    check::CheckContext ctx;
    check::MachineChecker::checkHitMissTotals(ctx, "traveller cache",
                                              10, 20, 10, 20);
    EXPECT_TRUE(ctx.clean());
    check::MachineChecker::checkHitMissTotals(ctx, "traveller cache",
                                              10, 20, 11, 19);
    EXPECT_EQ(ctx.violations().size(), 2u);
}

TEST(CheckerPerturbation, HopAccountingFires)
{
    check::CheckContext ctx;
    check::MachineChecker::checkHopAccounting(ctx, 42, 42);
    EXPECT_TRUE(ctx.clean());
    check::MachineChecker::checkHopAccounting(ctx, 43, 42);
    ASSERT_FALSE(ctx.clean());
    EXPECT_NE(ctx.violations()[0].find("hop accounting"),
              std::string::npos);
}

TEST(CheckerPerturbation, EnergyAdditivityFires)
{
    check::CheckContext ctx;
    EnergyBreakdown bd;
    bd.coreSramPj = 10.0;
    bd.netPj = 5.0;
    check::MachineChecker::checkEnergyAdditivity(ctx, bd);
    EXPECT_TRUE(ctx.clean());
    bd.dramMemPj = -1.0; // negative component
    check::MachineChecker::checkEnergyAdditivity(ctx, bd);
    ASSERT_FALSE(ctx.clean());
    EXPECT_NE(ctx.violations()[0].find("non-negative"),
              std::string::npos);
}

TEST(CheckerPerturbation, EnergyMonotonicityFires)
{
    check::CheckContext ctx;
    EnergyBreakdown prev, cur;
    prev.netPj = 10.0;
    cur.netPj = 9.0; // accumulated energy decreased
    check::MachineChecker::checkEnergyMonotone(ctx, prev, cur);
    ASSERT_FALSE(ctx.clean());
    EXPECT_NE(ctx.violations()[0].find("backwards"), std::string::npos);
}

TEST(CheckerPerturbation, BucketFillFires)
{
    check::CheckContext ctx;
    check::checkBucketFill<Tick>(ctx, "dram bank", 3, 1000, 1000);
    EXPECT_TRUE(ctx.clean());
    check::checkBucketFill<Tick>(ctx, "dram bank", 3, 1001, 1000);
    ASSERT_FALSE(ctx.clean());
    EXPECT_NE(ctx.violations()[0].find("overbooked"), std::string::npos);
}

TEST(CheckerPerturbation, MeterCleanFires)
{
    // A bucket written past its touched mark, or a spare page stashed
    // dirty, would keep stale fills through page recycling.
    check::CheckContext ctx;
    check::checkMeterClean(ctx, "ddr bank", 5, 0);
    EXPECT_TRUE(ctx.clean());
    check::checkMeterClean(ctx, "ddr bank", 5, 3);
    ASSERT_FALSE(ctx.clean());
    EXPECT_NE(ctx.violations()[0].find("outside its touched marks"),
              std::string::npos);
}

TEST(CheckerPerturbation, TaskConservationUnderFailureFires)
{
    // The failure-mode split law: staged == direct + recovered. A lost
    // task, a double-run, or a dropped recovery marker all surface as
    // an imbalance between the three counters.
    check::CheckContext ctx;
    check::MachineChecker::checkTaskConservationUnderFailure(ctx, 2, 10,
                                                             7, 3);
    EXPECT_TRUE(ctx.clean());
    check::MachineChecker::checkTaskConservationUnderFailure(ctx, 2, 10,
                                                             7, 2);
    ASSERT_FALSE(ctx.clean());
    EXPECT_NE(ctx.violations()[0].find("task conservation under failure"),
              std::string::npos);
}

TEST(CheckerPerturbation, MigrationConservationFires)
{
    // Re-homing law: with camp caching on, invalidations == migrations;
    // with caching off, invalidations == 0. A missed invalidation
    // (stale Traveller entry left behind) and a phantom one both
    // surface as an imbalance.
    check::CheckContext ctx;
    check::MachineChecker::checkMigrationConservation(ctx, 5, 5, true);
    check::MachineChecker::checkMigrationConservation(ctx, 5, 0, false);
    check::MachineChecker::checkMigrationConservation(ctx, 0, 0, true);
    EXPECT_TRUE(ctx.clean());
    check::MachineChecker::checkMigrationConservation(ctx, 5, 4, true);
    ASSERT_FALSE(ctx.clean());
    EXPECT_NE(ctx.violations()[0].find("migration conservation"),
              std::string::npos);
    ctx.clearViolations();
    // An invalidation without caching means phantom work.
    check::MachineChecker::checkMigrationConservation(ctx, 5, 5, false);
    ASSERT_FALSE(ctx.clean());
}

TEST(CheckerPerturbation, LoadDrainedFires)
{
    // Run-end law: with every task run, each unit's scheduler load is
    // exactly zero. A move that left its credit behind (a shed landing
    // on a dead unit's buddy without its load) surfaces here.
    check::CheckContext ctx;
    check::MachineChecker::checkLoadDrained(ctx, 0, 0.0);
    EXPECT_TRUE(ctx.clean());
    check::MachineChecker::checkLoadDrained(ctx, 0, 8879.0);
    ASSERT_FALSE(ctx.clean());
    EXPECT_NE(ctx.violations()[0].find(
                  "unit 0 still carries scheduler load 8879"),
              std::string::npos);
}

TEST(CheckerPerturbation, TaskPoolDrainedFires)
{
    // Run-end law: dispatch releases every task's pool slot, so a run
    // leaves none, or, cut by maxEpochs, exactly its staged tasks. A
    // task dropped unrun or a slot never released leaves a surplus.
    check::CheckContext ctx;
    check::MachineChecker::checkTaskPoolDrained(ctx, 0, 0);
    check::MachineChecker::checkTaskPoolDrained(ctx, 12, 12);
    EXPECT_TRUE(ctx.clean());
    check::MachineChecker::checkTaskPoolDrained(ctx, 1, 0);
    ASSERT_FALSE(ctx.clean());
    EXPECT_NE(ctx.violations()[0].find(
                  "task pool drained: 1 tasks still hold pool slots but "
                  "0 are staged"),
              std::string::npos);
    ctx.clearViolations();
    // A staged task that lost its slot is as wrong as a leaked one.
    check::MachineChecker::checkTaskPoolDrained(ctx, 11, 12);
    EXPECT_FALSE(ctx.clean());
}

TEST(CheckerPerturbation, BlockMemoFires)
{
    // A vertex task borrows its hint and its block list from run-lived
    // lists; one corrupted entry in the lender's block list, or a list
    // a runtime never memoized, must fire the memo law.
    std::vector<Addr> data{0x1000, 0x2040, 0x1010, 0x5000};
    std::vector<Addr> blocks{0x1000, 0x2040, 0x5000, 0x9000, 0x9040};
    Task t;
    t.hint.data.borrow(data.data(), data.size());
    t.hint.ranges.push_back({0x9000, 100}); // two lines
    t.blocks.borrow(blocks.data(), blocks.size());
    check::CheckContext ctx;
    check::MachineChecker::checkBlockMemo(ctx, t);
    EXPECT_TRUE(ctx.clean());

    blocks[2] += cachelineBytes;
    check::MachineChecker::checkBlockMemo(ctx, t);
    ASSERT_EQ(ctx.violations().size(), 1u);
    EXPECT_NE(ctx.violations()[0].find("stale or corrupted block list"),
              std::string::npos);

    // A task accepted without Task::finalizeBlocks() holds no list.
    ctx.clearViolations();
    blocks[2] -= cachelineBytes;
    t.blocks.clear();
    check::MachineChecker::checkBlockMemo(ctx, t);
    ASSERT_EQ(ctx.violations().size(), 1u);
    EXPECT_NE(ctx.violations()[0].find("memoized 0 blocks that differ "
                                       "from the 5 its hint derives"),
              std::string::npos);
    ctx.clearViolations();
    t.finalizeBlocks();
    check::MachineChecker::checkBlockMemo(ctx, t);
    EXPECT_TRUE(ctx.clean());

    // An empty hint derives an empty list: there is nothing to miss.
    Task empty;
    empty.finalizeBlocks();
    EXPECT_TRUE(empty.blocks.empty());
    check::MachineChecker::checkBlockMemo(ctx, empty);
    EXPECT_TRUE(ctx.clean());
}

TEST(CheckerPerturbation, StaleCampCopyFires)
{
    check::CheckContext ctx;
    check::MachineChecker::checkNoStaleCampCopy(ctx, 0x40, 0);
    EXPECT_TRUE(ctx.clean());
    check::MachineChecker::checkNoStaleCampCopy(ctx, 0x40, 1);
    ASSERT_FALSE(ctx.clean());
    EXPECT_NE(ctx.violations()[0].find("stale camp copy"),
              std::string::npos);
}

TEST(CheckerPerturbation, MigrationHookProbesEveryUnit)
{
    // Plant a copy of a block in a Traveller that is none of the
    // block's camps — a placement the targeted invalidation would never
    // probe. The hook must still find it: it checks every unit.
    auto cfg = smallConfig(Design::HlbM, true);
    cfg.traveller.bypassProb = 0.0;
    NdpSystem sys(cfg);
    auto *checker = sys.invariantChecker();
    ASSERT_NE(checker, nullptr);
    checker->context().setCollect(true);
    MemSystem &mem = sys.memSystem();
    const Addr block = 0x40;
    CandidateList camps;
    mem.campMapping().campsUnderAnyHome(block, camps);
    UnitId stray = invalidUnit;
    for (UnitId u = 0; u < sys.numUnits() && stray == invalidUnit; ++u) {
        bool isCamp = false;
        for (std::uint32_t g = 0; g < camps.n; ++g)
            isCamp |= camps.loc[g] == u;
        if (!isCamp)
            stray = u;
    }
    ASSERT_NE(stray, invalidUnit);
    ASSERT_TRUE(mem.traveller(stray).maybeInsert(block));

    checker->onBlockMigrated(block);
    ASSERT_FALSE(checker->context().clean());
    EXPECT_NE(checker->context().violations()[0].find("stale camp copy"),
              std::string::npos);

    checker->context().clearViolations();
    mem.traveller(stray).invalidate(block);
    checker->onBlockMigrated(block);
    EXPECT_TRUE(checker->context().clean());
}

TEST(CheckerPerturbation, EpochHookDetectsLostTask)
{
    // End-to-end through the hook: a freshly built machine whose epoch
    // engine claims 5 staged but only 3 executed tasks must record a
    // conservation violation (collect mode keeps it inspectable).
    auto cfg = smallConfig(Design::O, true);
    NdpSystem sys(cfg);
    auto *checker = sys.invariantChecker();
    ASSERT_NE(checker, nullptr);
    checker->context().setCollect(true);
    checker->onEpochStart(0, 5);
    checker->onEpochEnd(0, 3, 0, 0);
    bool found = false;
    for (const auto &v : checker->context().violations())
        found |= v.find("task conservation") != std::string::npos;
    EXPECT_TRUE(found);
}

// ---- Positive: real runs satisfy every invariant ----------------------

class CheckedDesignRun : public ::testing::TestWithParam<Design>
{
};

TEST_P(CheckedDesignRun, AllInvariantsHoldEndToEnd)
{
    // A violation would panic inside run(); reaching the end cleanly is
    // the assertion. Cover a stealing design, a forwarding design, and
    // the full O machine via the parameter.
    auto cfg = smallConfig(GetParam(), true);
    NdpSystem sys(cfg);
    ASSERT_NE(sys.invariantChecker(), nullptr);
    auto wl = makeWorkload(WorkloadSpec::tiny("pr"));
    RunMetrics m = sys.run(*wl);
    EXPECT_TRUE(wl->verify());
    EXPECT_GT(m.tasks, 0u);
    // HLB-mig must actually re-home blocks here, or the per-migration
    // stale-copy hook would go unexercised.
    if (GetParam() == Design::HlbM) {
        EXPECT_GT(m.blocksMigrated, 0u);
    }
    EXPECT_TRUE(sys.invariantChecker()->context().clean());
}

INSTANTIATE_TEST_SUITE_P(AllNdpDesigns, CheckedDesignRun,
                         ::testing::ValuesIn(ndpDesigns()),
                         [](const auto &info) {
                             return designToken(info.param);
                         });

TEST(CheckedDesignRun, SecondWorkloadUnderO)
{
    auto cfg = smallConfig(Design::O, true);
    NdpSystem sys(cfg);
    auto wl = makeWorkload(WorkloadSpec::tiny("kmeans"));
    sys.run(*wl);
    EXPECT_TRUE(wl->verify());
}

// ---- Observational-only: checkers never perturb the machine -----------

TEST(CheckerDeterminism, StatsDumpIdenticalWithCheckersArmed)
{
    // The check layer follows the obs:: rule: arming it must not change
    // a single stat (no timing or Rng feedback). Byte-compare the full
    // registry dump of checked vs unchecked runs for every NDP design.
    for (Design d : ndpDesigns()) {
        std::string off = runAndDump(d, false);
        std::string on = runAndDump(d, true);
        EXPECT_EQ(off, on) << "checkers perturbed design "
                           << designName(d);
    }
}

} // namespace abndp
