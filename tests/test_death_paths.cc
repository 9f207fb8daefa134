/**
 * @file
 * Death-test coverage of the simulator's fatal()/panic() paths: every
 * SystemConfig::validate() rejection reachable by a test, plus the
 * watchdog/deadlock diagnostic dump. The event queue's own death
 * paths (schedule-into-the-past panic; its capacity limit is a
 * compile-time callbackFits rejection) live in test_event_queue.cc,
 * and the straggler/link/ECC fault rejections in FaultConfigValidate
 * (test_fault_injection.cc); this file adds the remaining
 * window/latency/count gaps without repeating those.
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

/** Valid baseline with the Traveller Cache on (O = full ABNDP). */
SystemConfig
travellerConfig()
{
    return applyDesign(SystemConfig{}, Design::O);
}

} // namespace

// ---- validate(): mesh / units / memory -------------------------------

TEST(ConfigValidateDeath, RejectsZeroMesh)
{
    auto cfg = plainConfig();
    cfg.meshX = 0;
    EXPECT_DEATH(cfg.validate(), "mesh dimensions must be nonzero");
    auto cfg2 = plainConfig();
    cfg2.meshY = 0;
    EXPECT_DEATH(cfg2.validate(), "mesh dimensions must be nonzero");
}

TEST(ConfigValidateDeath, RejectsZeroUnitsOrCores)
{
    auto cfg = plainConfig();
    cfg.unitsPerStack = 0;
    EXPECT_DEATH(cfg.validate(), "unitsPerStack and coresPerUnit");
    auto cfg2 = plainConfig();
    cfg2.coresPerUnit = 0;
    EXPECT_DEATH(cfg2.validate(), "unitsPerStack and coresPerUnit");
}

TEST(ConfigValidateDeath, RejectsNonPow2Memory)
{
    auto cfg = plainConfig();
    cfg.memBytesPerUnit = 3ull << 20;
    EXPECT_DEATH(cfg.validate(),
                 "memBytesPerUnit must be a power of two");
}

// ---- validate(): L1 cache geometry -----------------------------------

TEST(ConfigValidateDeath, RejectsBadL1Geometry)
{
    auto cfg = plainConfig();
    cfg.l1d.sizeBytes = 3000;
    EXPECT_DEATH(cfg.validate(), "L1-D size");
    auto cfg2 = plainConfig();
    cfg2.l1d.lineBytes = 48;
    EXPECT_DEATH(cfg2.validate(), "L1-D line size");
    auto cfg3 = plainConfig();
    cfg3.l1d.assoc = 0;
    EXPECT_DEATH(cfg3.validate(), "L1-D associativity must be nonzero");
    auto cfg4 = plainConfig();
    cfg4.l1d.sizeBytes = 64; // 64B / 64B lines / 2-way = zero sets
    cfg4.l1d.lineBytes = 64;
    cfg4.l1d.assoc = 2;
    EXPECT_DEATH(cfg4.validate(), "L1-D geometry degenerate");
    auto cfg5 = plainConfig();
    cfg5.l1i.sizeBytes = 3000; // the instruction cache is checked too
    EXPECT_DEATH(cfg5.validate(), "L1-I size");
}

TEST(ConfigValidateDeath, RejectsUndersizedPrefetchBuffer)
{
    // Smaller than one block would build a zero-entry buffer and trip
    // an internal assertion; it must be a user-facing fatal() instead.
    auto cfg = plainConfig();
    cfg.prefetchBufBytes = 32;
    EXPECT_DEATH(cfg.validate(),
                 "prefetchBufBytes must hold at least one 64-byte block");
    auto cfg2 = plainConfig();
    cfg2.prefetchBufBytes = 0;
    EXPECT_DEATH(NdpSystem{cfg2}, "prefetchBufBytes");
}

// ---- validate(): Traveller Cache -------------------------------------

TEST(ConfigValidateDeath, RejectsBadTravellerGeometry)
{
    auto cfg = travellerConfig();
    cfg.traveller.ratioDenom = 3;
    EXPECT_DEATH(cfg.validate(),
                 "traveller ratio denominator must be a power of two");
    auto cfg2 = travellerConfig();
    cfg2.traveller.assoc = 0;
    EXPECT_DEATH(cfg2.validate(),
                 "traveller cache geometry degenerate");
}

TEST(ConfigValidateDeath, RejectsBadCampGrouping)
{
    auto cfg = travellerConfig();
    cfg.traveller.campCount = 0;
    EXPECT_DEATH(cfg.validate(), "campCount must be >= 1");
    auto cfg2 = travellerConfig();
    cfg2.traveller.campCount = 2; // 3 groups cannot tile 128 units
    EXPECT_DEATH(cfg2.validate(), "must be divisible by the");
}

TEST(ConfigValidateDeath, RejectsBadTravellerTimings)
{
    auto cfg = travellerConfig();
    cfg.traveller.bypassProb = 1.5;
    EXPECT_DEATH(cfg.validate(), "bypassProb must be within");
    auto cfg2 = travellerConfig();
    cfg2.traveller.tagCheckNs = -0.5;
    EXPECT_DEATH(cfg2.validate(), "tagCheckNs and sramDataNs");
}

// ---- validate(): latency scalars and scheduler knobs -----------------

TEST(ConfigValidateDeath, RejectsNegativeLatencies)
{
    auto cfg = plainConfig();
    cfg.pbHitNs = -1.0;
    EXPECT_DEATH(cfg.validate(), "pbHitNs must be non-negative");
    auto cfg2 = plainConfig();
    cfg2.l1iMissNs = -1.0;
    EXPECT_DEATH(cfg2.validate(), "l1iMissNs must be non-negative");
}

TEST(ConfigValidateDeath, RejectsBadSchedulerKnobs)
{
    auto cfg = plainConfig();
    cfg.sched.prefetchWindow = 0;
    EXPECT_DEATH(cfg.validate(), "prefetchWindow must be nonzero");
    auto cfg2 = plainConfig();
    cfg2.sched.schedulingWindow = 0;
    EXPECT_DEATH(cfg2.validate(), "schedulingWindow must be nonzero");
    auto cfg3 = plainConfig();
    cfg3.sched.workStealing = true;
    cfg3.sched.stealBatch = 0;
    EXPECT_DEATH(cfg3.validate(), "stealBatch must be nonzero");
    auto cfg4 = plainConfig();
    cfg4.sched.exchangeIntervalCycles = 0;
    EXPECT_DEATH(cfg4.validate(),
                 "exchangeIntervalCycles must be nonzero");
    auto cfg5 = plainConfig();
    cfg5.sched.missPipelineDepth = 0;
    EXPECT_DEATH(cfg5.validate(), "missPipelineDepth must be within");
    auto cfg6 = plainConfig();
    cfg6.sched.missPipelineDepth = 65;
    EXPECT_DEATH(cfg6.validate(), "missPipelineDepth must be within");
}

TEST(ConfigValidateDeath, RejectsNonPositiveFrequency)
{
    auto cfg = plainConfig();
    cfg.coreFreqGHz = 0.0;
    EXPECT_DEATH(cfg.validate(), "coreFreqGHz must be positive");
}

// ---- validate(): TLB --------------------------------------------------

TEST(ConfigValidateDeath, RejectsBadTlbGeometry)
{
    auto cfg = plainConfig();
    cfg.tlb.enabled = true;
    cfg.tlb.pageBytes = 3000;
    EXPECT_DEATH(cfg.validate(), "TLB page size");
    auto cfg2 = plainConfig();
    cfg2.tlb.enabled = true;
    cfg2.tlb.entries = 5; // not a multiple of the 4-way associativity
    EXPECT_DEATH(cfg2.validate(), "TLB entries");
}

// ---- validate(): tracing and remaining fault-config gaps -------------

TEST(ConfigValidateDeath, RejectsTracingWithoutBuffer)
{
    auto cfg = plainConfig();
    cfg.traceOut = "trace.json";
    cfg.traceBufferEvents = 0;
    EXPECT_DEATH(cfg.validate(), "traceBufferEvents must be nonzero");
}

TEST(ConfigValidateDeath, RejectsRemainingFaultGaps)
{
    auto cfg = plainConfig();
    cfg.fault.straggler.units = {0};
    cfg.fault.straggler.windowStartNs = -1.0;
    EXPECT_DEATH(cfg.validate(),
                 "straggler window bounds must be non-negative");
    auto cfg2 = plainConfig();
    cfg2.fault.link.extraLatencyNs = -1.0;
    EXPECT_DEATH(cfg2.validate(),
                 "extraLatencyNs and retryBackoffNs");
    auto cfg3 = plainConfig();
    cfg3.fault.link.count = cfg3.numStacks() * 4 + 1;
    EXPECT_DEATH(cfg3.validate(), "exceeds the directed");
}

// ---- validate(): unit failures ----------------------------------------

TEST(ConfigValidateDeath, RejectsOutOfRangeFailedUnit)
{
    auto cfg = plainConfig();
    cfg.fault.unitFailure.units = {cfg.numUnits()};
    EXPECT_DEATH(cfg.validate(), "failed unit id .* is out of range");
}

TEST(ConfigValidateDeath, RejectsKillingEveryUnit)
{
    auto cfg = plainConfig();
    cfg.fault.unitFailure.count = cfg.numUnits();
    EXPECT_DEATH(cfg.validate(),
                 "unit failures must leave at least one live unit");
    // Duplicated explicit ids must not evade the live-unit floor.
    auto cfg2 = plainConfig();
    for (UnitId u = 0; u < cfg2.numUnits(); ++u) {
        cfg2.fault.unitFailure.units.push_back(u);
        cfg2.fault.unitFailure.units.push_back(u);
    }
    EXPECT_DEATH(cfg2.validate(),
                 "unit failures must leave at least one live unit");
}

TEST(ConfigValidateDeath, RejectsNegativeFailureTimes)
{
    auto cfg = plainConfig();
    cfg.fault.unitFailure.count = 1;
    cfg.fault.unitFailure.failAtNs = -1.0;
    EXPECT_DEATH(cfg.validate(),
                 "failAtNs and recoverAtNs must be non-negative");
}

TEST(ConfigValidateDeath, RejectsRecoveryBeforeFailure)
{
    auto cfg = plainConfig();
    cfg.fault.unitFailure.count = 1;
    cfg.fault.unitFailure.failAtNs = 500.0;
    cfg.fault.unitFailure.recoverAtNs = 500.0;
    EXPECT_DEATH(cfg.validate(), "must exceed failAtNs");
}

TEST(ConfigValidateDeath, RejectsNonPositiveAckTimeout)
{
    auto cfg = plainConfig();
    cfg.fault.unitFailure.count = 1;
    cfg.fault.unitFailure.ackTimeoutNs = 0.0;
    EXPECT_DEATH(cfg.validate(), "ackTimeoutNs must be positive");
}

TEST(ConfigValidateDeath, RejectsNegativeRedispatchBackoff)
{
    auto cfg = plainConfig();
    cfg.fault.unitFailure.count = 1;
    cfg.fault.unitFailure.redispatchBackoffNs = -1.0;
    EXPECT_DEATH(cfg.validate(),
                 "redispatchBackoffNs must be\\s+non-negative");
}

TEST(ConfigValidateDeath, RejectsZeroMaxRedispatch)
{
    auto cfg = plainConfig();
    cfg.fault.unitFailure.count = 1;
    cfg.fault.unitFailure.maxRedispatch = 0;
    EXPECT_DEATH(cfg.validate(), "maxRedispatch must be nonzero");
}

// ---- validate(): online serving ---------------------------------------

namespace
{

/** Valid baseline with a serving stream enabled. */
SystemConfig
servingConfig()
{
    auto cfg = plainConfig();
    cfg.serving.requests = 100;
    return cfg;
}

} // namespace

TEST(ConfigValidateDeath, RejectsNonPositiveServingRate)
{
    auto cfg = servingConfig();
    cfg.serving.ratePerUs = 0.0;
    EXPECT_DEATH(cfg.validate(), "ratePerUs must be positive");
}

TEST(ConfigValidateDeath, RejectsSubUnityBurstFactor)
{
    auto cfg = servingConfig();
    cfg.serving.burstFactor = 0.5;
    EXPECT_DEATH(cfg.validate(), "burstFactor must be >= 1");
}

TEST(ConfigValidateDeath, RejectsOutOfRangeBurstFraction)
{
    auto cfg = servingConfig();
    cfg.serving.burstFraction = 1.0;
    EXPECT_DEATH(cfg.validate(), "burstFraction must be within");
    auto cfg2 = servingConfig();
    cfg2.serving.burstFraction = -0.1;
    EXPECT_DEATH(cfg2.validate(), "burstFraction must be within");
}

TEST(ConfigValidateDeath, RejectsMeanDestroyingBurst)
{
    // factor x fraction >= 1 leaves no positive off-phase rate that
    // preserves the configured mean.
    auto cfg = servingConfig();
    cfg.serving.profile = RateProfile::Bursty;
    cfg.serving.burstFactor = 4.0;
    cfg.serving.burstFraction = 0.25;
    EXPECT_DEATH(cfg.validate(), "must stay below 1");
}

TEST(ConfigValidateDeath, RejectsNonPositiveServingPeriods)
{
    auto cfg = servingConfig();
    cfg.serving.burstPeriodUs = 0.0;
    EXPECT_DEATH(cfg.validate(), "burstPeriodUs must be positive");
    auto cfg2 = servingConfig();
    cfg2.serving.diurnalPeriodUs = -1.0;
    EXPECT_DEATH(cfg2.validate(), "diurnalPeriodUs must be positive");
}

TEST(ConfigValidateDeath, RejectsOutOfRangeDiurnalDepth)
{
    auto cfg = servingConfig();
    cfg.serving.diurnalDepth = 1.0;
    EXPECT_DEATH(cfg.validate(), "diurnalDepth must be within");
}

TEST(ConfigValidateDeath, RejectsNegativeZipfExponent)
{
    auto cfg = servingConfig();
    cfg.serving.zipfS = -0.1;
    EXPECT_DEATH(cfg.validate(), "zipfS must be non-negative");
}

TEST(ConfigValidateDeath, RejectsBadTenantCounts)
{
    auto cfg = servingConfig();
    cfg.serving.tenants = 0;
    EXPECT_DEATH(cfg.validate(), "tenants must be nonzero");
    auto cfg2 = servingConfig();
    cfg2.serving.tenants = 65;
    EXPECT_DEATH(cfg2.validate(), "tenants must be at most 64");
}

TEST(ConfigValidateDeath, RejectsBadTenantWeights)
{
    auto cfg = servingConfig();
    cfg.serving.tenants = 2;
    cfg.serving.tenantWeights = {1.0, 2.0, 3.0};
    EXPECT_DEATH(cfg.validate(), "tenantWeights has 3 entries");
    auto cfg2 = servingConfig();
    cfg2.serving.tenants = 2;
    cfg2.serving.tenantWeights = {1.0, 0.0};
    EXPECT_DEATH(cfg2.validate(), "tenant weights must be positive");
}

TEST(ConfigValidateDeath, RejectsNonPositiveSlo)
{
    auto cfg = servingConfig();
    cfg.serving.sloNs = 0.0;
    EXPECT_DEATH(cfg.validate(), "sloNs must be positive");
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

// ---- validate(): memory backend (src/mem) -----------------------------

namespace
{

/** Valid baseline on the bank-state DDR backend. */
SystemConfig
ddrConfig()
{
    auto cfg = plainConfig();
    cfg.dram.backend = MemBackendKind::Ddr;
    return cfg;
}

} // namespace

TEST(ConfigValidateDeath, RejectsZeroDramGeometry)
{
    auto cfg = plainConfig();
    cfg.dram.banks = 0;
    EXPECT_DEATH(cfg.validate(), "dram banks must be nonzero");
    auto cfg2 = plainConfig();
    cfg2.dram.rowBytes = 0;
    EXPECT_DEATH(cfg2.validate(), "dram rowBytes must be nonzero");
    auto cfg3 = plainConfig();
    cfg3.dram.busBits = 0;
    EXPECT_DEATH(cfg3.validate(), "dram busBits must be nonzero");
}

TEST(ConfigValidateDeath, RejectsNonPositiveDramBus)
{
    auto cfg = plainConfig();
    cfg.dram.busGHz = 0.0;
    EXPECT_DEATH(cfg.validate(), "dram busGHz must be positive");
}

TEST(ConfigValidateDeath, RejectsNegativeDramCoreTimings)
{
    auto cfg = plainConfig();
    cfg.dram.tRcdNs = -1.0;
    EXPECT_DEATH(cfg.validate(),
                 "dram tCAS/tRCD/tRP must be non-negative");
}

TEST(ConfigValidateDeath, RejectsBadRefreshParameters)
{
    auto cfg = plainConfig();
    cfg.dram.tRefiNs = 0.0;
    EXPECT_DEATH(cfg.validate(), "dram tREFI must be positive");
    auto cfg2 = plainConfig();
    cfg2.dram.tRfcNs = -1.0;
    EXPECT_DEATH(cfg2.validate(), "dram tRFC must be non-negative");
    auto cfg3 = plainConfig();
    cfg3.dram.refreshCatchupMax = 0;
    EXPECT_DEATH(cfg3.validate(),
                 "dram refreshCatchupMax must be nonzero");
    // With refresh off the same knobs are dormant and tolerated.
    auto cfg4 = plainConfig();
    cfg4.dram.refreshEnabled = false;
    cfg4.dram.tRefiNs = 0.0;
    cfg4.dram.refreshCatchupMax = 0;
    cfg4.validate();
}

TEST(ConfigValidateDeath, RejectsBadDdrBurstBytes)
{
    auto cfg = ddrConfig();
    cfg.dram.burstBytes = 48; // not a power of two
    EXPECT_DEATH(cfg.validate(),
                 "dram burstBytes must be a nonzero power of two");
    auto cfg2 = ddrConfig();
    cfg2.dram.rowBytes = 2048 + 32;
    cfg2.dram.burstBytes = 64;
    EXPECT_DEATH(cfg2.validate(), "multiple of burstBytes");
}

TEST(ConfigValidateDeath, RejectsBadBankGroups)
{
    auto cfg = ddrConfig();
    cfg.dram.banks = 8;
    cfg.dram.bankGroups = 3; // does not divide the bank count
    EXPECT_DEATH(cfg.validate(), "multiple of bankGroups");
    auto cfg2 = ddrConfig();
    cfg2.dram.bankGroups = 0;
    EXPECT_DEATH(cfg2.validate(), "multiple of bankGroups");
}

TEST(ConfigValidateDeath, RejectsRasShorterThanRcd)
{
    auto cfg = ddrConfig();
    cfg.dram.tRasNs = cfg.dram.tRcdNs - 1.0;
    EXPECT_DEATH(cfg.validate(), "must cover at least");
}

TEST(ConfigValidateDeath, RejectsNegativeWrOrFaw)
{
    auto cfg = ddrConfig();
    cfg.dram.tWrNs = -1.0;
    EXPECT_DEATH(cfg.validate(),
                 "dram tWR and tFAW must be non-negative");
    auto cfg2 = ddrConfig();
    cfg2.dram.tFawNs = -1.0;
    EXPECT_DEATH(cfg2.validate(),
                 "dram tWR and tFAW must be non-negative");
}

TEST(ConfigValidateDeath, RejectsUnevenBrcSlices)
{
    auto cfg = ddrConfig();
    cfg.dram.addrMap = DramAddrMapKind::BankRowColumn;
    cfg.dram.banks = 24; // memBytesPerUnit is pow2: cannot divide
    cfg.dram.bankGroups = 4;
    EXPECT_DEATH(cfg.validate(), "slices each unit's region evenly");
    // The meter backend ignores the map and accepts the same count.
    auto cfg2 = plainConfig();
    cfg2.dram.banks = 24;
    cfg2.validate();
}

TEST(ConfigValidateDeath, RejectsUnknownBackendNames)
{
    EXPECT_DEATH(memBackendFromName("hbm3"), "unknown memory backend");
    EXPECT_DEATH(pagePolicyFromName("lazy"), "unknown page policy");
    EXPECT_DEATH(dramAddrMapFromName("rbx"), "unknown dram address map");
}

// ---- validate(): hierarchical load balancing (src/sched/lb) -----------

namespace
{

/** Valid baseline with the balancer and migration on (HLB-mig). */
SystemConfig
hlbConfig()
{
    return applyDesign(SystemConfig{}, Design::HlbM);
}

} // namespace

TEST(ConfigValidateDeath, RejectsLbWithNoTiers)
{
    auto cfg = hlbConfig();
    cfg.lb.intraTier = LbTierKind::None;
    cfg.lb.interTier = LbTierKind::None;
    EXPECT_DEATH(cfg.validate(), "both tiers set to none");
}

TEST(ConfigValidateDeath, RejectsZeroHotK)
{
    auto cfg = hlbConfig();
    cfg.lb.hotK = 0;
    EXPECT_DEATH(cfg.validate(), "lb hotK must be nonzero");
}

TEST(ConfigValidateDeath, RejectsOversizedDecayShift)
{
    auto cfg = hlbConfig();
    cfg.lb.decayShift = 64;
    EXPECT_DEATH(cfg.validate(), "lb decayShift must be at most 63");
}

TEST(ConfigValidateDeath, RejectsZeroChunkWithStealingTier)
{
    auto cfg = hlbConfig();
    cfg.lb.intraTier = LbTierKind::Stealing;
    cfg.lb.chunkSize = 0;
    EXPECT_DEATH(cfg.validate(),
                 "chunkSize must be nonzero when a stealing tier");
    // With no stealing tier the knob is dormant and tolerated.
    auto cfg2 = hlbConfig();
    cfg2.lb.intraTier = LbTierKind::Average;
    cfg2.lb.interTier = LbTierKind::Reserve;
    cfg2.lb.chunkSize = 0;
    cfg2.validate();
}

TEST(ConfigValidateDeath, RejectsOutOfRangeReserveFrac)
{
    auto cfg = hlbConfig();
    cfg.lb.interTier = LbTierKind::Reserve;
    cfg.lb.reserveFrac = 1.5;
    EXPECT_DEATH(cfg.validate(), "reserveFrac must be within");
    // Without a reserve tier the knob is dormant and tolerated.
    auto cfg2 = hlbConfig();
    cfg2.lb.reserveFrac = -1.0;
    cfg2.validate();
}

TEST(ConfigValidateDeath, RejectsMigrationWithoutBalancer)
{
    auto cfg = plainConfig();
    cfg.lb.migration.enabled = true;
    EXPECT_DEATH(cfg.validate(),
                 "migration requires the load balancer");
}

TEST(ConfigValidateDeath, RejectsZeroMigrationThreshold)
{
    auto cfg = hlbConfig();
    cfg.lb.migration.threshold = 0;
    EXPECT_DEATH(cfg.validate(),
                 "lb migration threshold must be nonzero");
}

TEST(ConfigValidateDeath, RejectsZeroMigrationCap)
{
    auto cfg = hlbConfig();
    cfg.lb.migration.maxPerExchange = 0;
    EXPECT_DEATH(cfg.validate(),
                 "lb migration maxPerExchange must be nonzero");
}

TEST(ConfigValidateDeath, RejectsUnknownLbTierNames)
{
    EXPECT_DEATH(lbTierFromName("bogus"), "unknown lb tier");
}

// ---- design helpers ---------------------------------------------------

TEST(ConfigValidateDeath, UnknownDesignPanics)
{
    EXPECT_DEATH(designName(static_cast<Design>(99)), "unknown design");
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
