/**
 * @file
 * The config-rule tables: every SystemConfig and WorkloadSpec rule
 * checked through validationError(), without forking a death test per
 * rule. A row names a valid base config, one mutation, and the
 * message (a regex) of the rule the mutated config must break first;
 * an empty message means the mutated config must stay valid, which
 * pins the knobs that are dormant while their feature is off. Rows
 * sharing a test name run as one gtest test under that name, so each
 * rule group keeps its established test id. tests/test_death_paths.cc
 * keeps the real death tests of validate() itself and of NdpSystem's
 * constructor.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <iterator>
#include <regex>
#include <set>
#include <string>
#include <utility>

#include "common/config.hh"
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

/** The raw defaults, before any design point is applied. */
SystemConfig
defaultConfig()
{
    return SystemConfig{};
}

/** Valid baseline with a serving stream enabled. */
SystemConfig
servingConfig()
{
    auto cfg = plainConfig();
    cfg.serving.requests = 100;
    return cfg;
}

/** Valid baseline on the bank-state DDR backend. */
SystemConfig
ddrConfig()
{
    auto cfg = plainConfig();
    cfg.dram.backend = MemBackendKind::Ddr;
    return cfg;
}

/** Valid baseline with the balancer and migration on (HLB-mig). */
SystemConfig
hlbConfig()
{
    return applyDesign(SystemConfig{}, Design::HlbM);
}

/** One row of a rule table over config type @p Cfg. */
template <typename Cfg>
struct Row
{
    /** gtest id, "Suite.Name"; rows sharing it form one test. */
    const char *test;
    Cfg (*base)();
    void (*mutate)(Cfg &);
    /** Regex the first broken rule's message must contain; "" = valid. */
    const char *expect;
};

using C = SystemConfig;

const Row<C> rows[] = {
    // ---- mesh / units / memory ----
    {"ConfigValidateDeath.RejectsZeroMesh", plainConfig,
     [](C &c) { c.meshX = 0; }, "mesh dimensions must be nonzero"},
    {"ConfigValidateDeath.RejectsZeroMesh", plainConfig,
     [](C &c) { c.meshY = 0; }, "mesh dimensions must be nonzero"},
    {"ConfigValidateDeath.RejectsZeroUnitsOrCores", plainConfig,
     [](C &c) { c.unitsPerStack = 0; }, "unitsPerStack and coresPerUnit"},
    {"ConfigValidateDeath.RejectsZeroUnitsOrCores", plainConfig,
     [](C &c) { c.coresPerUnit = 0; }, "unitsPerStack and coresPerUnit"},
    // 2^32 stacks, 16 x 2^28 units, 128 x 2^25 cores: each count
    // wraps to 0 in 32 bits.
    {"ConfigValidate.RejectsWrappingCoreCount", plainConfig,
     [](C &c) { c.meshX = c.meshY = 65536; },
     "exceeds the 32-bit core count limit \\(4294967295\\)"},
    {"ConfigValidate.RejectsWrappingCoreCount", plainConfig,
     [](C &c) { c.unitsPerStack = 1u << 28; },
     "exceeds the 32-bit core count limit"},
    {"ConfigValidate.RejectsWrappingCoreCount", plainConfig,
     [](C &c) { c.coresPerUnit = 1u << 25; },
     "exceeds the 32-bit core count limit"},
    // Exactly 2^32 - 1 cores still fits.
    {"ConfigValidate.RejectsWrappingCoreCount", plainConfig,
     [](C &c) {
         c.meshX = 65535;
         c.meshY = 65537;
         c.unitsPerStack = c.coresPerUnit = 1;
     },
     ""},
    {"ConfigValidateDeath.RejectsNonPow2Memory", plainConfig,
     [](C &c) { c.memBytesPerUnit = 3ull << 20; },
     "memBytesPerUnit must be a power of two"},

    // ---- L1 cache geometry ----
    {"ConfigValidateDeath.RejectsBadL1Geometry", plainConfig,
     [](C &c) { c.l1d.sizeBytes = 3000; }, "L1-D size"},
    {"ConfigValidateDeath.RejectsBadL1Geometry", plainConfig,
     [](C &c) { c.l1d.lineBytes = 48; }, "L1-D line size"},
    {"ConfigValidateDeath.RejectsBadL1Geometry", plainConfig,
     [](C &c) { c.l1d.assoc = 0; }, "L1-D associativity must be nonzero"},
    // 64B / 64B lines / 2-way = zero sets.
    {"ConfigValidateDeath.RejectsBadL1Geometry", plainConfig,
     [](C &c) {
         c.l1d.sizeBytes = 64;
         c.l1d.lineBytes = 64;
         c.l1d.assoc = 2;
     },
     "L1-D geometry degenerate"},
    // The instruction cache is checked too.
    {"ConfigValidateDeath.RejectsBadL1Geometry", plainConfig,
     [](C &c) { c.l1i.sizeBytes = 3000; }, "L1-I size"},
    // Smaller than one block would build a zero-entry buffer and trip
    // an internal assertion; it must be a user-facing rule instead.
    {"ConfigValidateDeath.RejectsUndersizedPrefetchBuffer", plainConfig,
     [](C &c) { c.prefetchBufBytes = 32; },
     "prefetchBufBytes must hold at least one 64-byte block"},

    // ---- Traveller Cache ----
    {"ConfigValidateDeath.RejectsBadTravellerGeometry", travellerConfig,
     [](C &c) { c.traveller.ratioDenom = 3; },
     "traveller ratio denominator must be a power of two"},
    {"ConfigValidateDeath.RejectsBadTravellerGeometry", travellerConfig,
     [](C &c) { c.traveller.assoc = 0; },
     "traveller cache geometry degenerate"},
    {"ConfigValidateDeath.RejectsBadCampGrouping", travellerConfig,
     [](C &c) { c.traveller.campCount = 0; }, "campCount must be >= 1"},
    // 3 groups cannot tile 128 units.
    {"ConfigValidateDeath.RejectsBadCampGrouping", travellerConfig,
     [](C &c) { c.traveller.campCount = 2; }, "must be divisible by the"},
    // campCount + 1 wraps to 0 groups in 32 bits.
    {"ConfigValidate.RejectsWrappingCampGroupCount", travellerConfig,
     [](C &c) { c.traveller.campCount = 4294967295u; },
     "number of camp groups \\(4294967296\\)"},
    {"ConfigValidateDeath.RejectsBadTravellerTimings", travellerConfig,
     [](C &c) { c.traveller.bypassProb = 1.5; },
     "bypassProb must be within"},
    {"ConfigValidateDeath.RejectsBadTravellerTimings", travellerConfig,
     [](C &c) { c.traveller.tagCheckNs = -0.5; },
     "tagCheckNs and sramDataNs"},

    // ---- latency scalars and scheduler knobs ----
    {"ConfigValidateDeath.RejectsNegativeLatencies", plainConfig,
     [](C &c) { c.pbHitNs = -1.0; }, "pbHitNs must be non-negative"},
    {"ConfigValidateDeath.RejectsNegativeLatencies", plainConfig,
     [](C &c) { c.l1iMissNs = -1.0; }, "l1iMissNs must be non-negative"},
    {"ConfigValidateDeath.RejectsBadSchedulerKnobs", plainConfig,
     [](C &c) { c.sched.prefetchWindow = 0; },
     "prefetchWindow must be nonzero"},
    {"ConfigValidateDeath.RejectsBadSchedulerKnobs", plainConfig,
     [](C &c) { c.sched.schedulingWindow = 0; },
     "schedulingWindow must be nonzero"},
    {"ConfigValidateDeath.RejectsBadSchedulerKnobs", plainConfig,
     [](C &c) {
         c.sched.workStealing = true;
         c.sched.stealBatch = 0;
     },
     "stealBatch must be nonzero"},
    {"ConfigValidateDeath.RejectsBadSchedulerKnobs", plainConfig,
     [](C &c) { c.sched.exchangeIntervalCycles = 0; },
     "exchangeIntervalCycles must be nonzero"},
    {"ConfigValidateDeath.RejectsBadSchedulerKnobs", plainConfig,
     [](C &c) { c.sched.missPipelineDepth = 0; },
     "missPipelineDepth must be within"},
    {"ConfigValidateDeath.RejectsBadSchedulerKnobs", plainConfig,
     [](C &c) { c.sched.missPipelineDepth = 65; },
     "missPipelineDepth must be within"},
    {"ConfigValidateDeath.RejectsNonPositiveFrequency", plainConfig,
     [](C &c) { c.coreFreqGHz = 0.0; }, "coreFreqGHz must be positive"},

    // ---- TLB ----
    {"ConfigValidateDeath.RejectsBadTlbGeometry", plainConfig,
     [](C &c) {
         c.tlb.enabled = true;
         c.tlb.pageBytes = 3000;
     },
     "TLB page size"},
    // Not a multiple of the 4-way associativity.
    {"ConfigValidateDeath.RejectsBadTlbGeometry", plainConfig,
     [](C &c) {
         c.tlb.enabled = true;
         c.tlb.entries = 5;
     },
     "TLB entries"},

    // ---- stragglers, faulty links, DRAM ECC ----
    {"FaultConfigValidate.RejectsOutOfRangeValues", plainConfig,
     [](C &c) {
         c.fault.straggler.count = 1;
         c.fault.straggler.computeDerate = 0.0;
     },
     "computeDerate"},
    {"FaultConfigValidate.RejectsOutOfRangeValues", plainConfig,
     [](C &c) {
         c.fault.straggler.count = 1;
         c.fault.straggler.bandwidthDerate = 1.5;
     },
     "bandwidthDerate"},
    {"FaultConfigValidate.RejectsOutOfRangeValues", plainConfig,
     [](C &c) { c.fault.straggler.count = c.numUnits() + 1; },
     "exceeds the unit count"},
    {"FaultConfigValidate.RejectsOutOfRangeValues", plainConfig,
     [](C &c) { c.fault.straggler.units = {c.numUnits()}; },
     "out of range"},
    {"FaultConfigValidate.RejectsOutOfRangeValues", plainConfig,
     [](C &c) {
         c.fault.straggler.units = {0};
         c.fault.straggler.windowStartNs = 50.0;
         c.fault.straggler.windowEndNs = 50.0;
     },
     "window is empty"},
    {"FaultConfigValidate.RejectsOutOfRangeValues", plainConfig,
     [](C &c) {
         c.fault.link.count = 1;
         c.fault.link.dropProb = 1.0;
     },
     "dropProb"},
    {"FaultConfigValidate.RejectsOutOfRangeValues", plainConfig,
     [](C &c) { c.fault.link.links = {c.numStacks() * 4}; },
     "out of range"},
    {"FaultConfigValidate.RejectsOutOfRangeValues", plainConfig,
     [](C &c) {
         c.fault.link.count = 1;
         c.fault.link.dropProb = 0.1;
         c.fault.link.maxRetries = 0;
     },
     "maxRetries"},
    {"FaultConfigValidate.RejectsOutOfRangeValues", plainConfig,
     [](C &c) { c.fault.dram.eccRetryProb = -0.1; }, "eccRetryProb"},
    {"FaultConfigValidate.RejectsOutOfRangeValues", plainConfig,
     [](C &c) {
         c.fault.dram.eccRetryProb = 0.5;
         c.fault.dram.eccRetryNs = -1.0;
     },
     "eccRetryNs"},
    {"ConfigValidateDeath.RejectsRemainingFaultGaps", plainConfig,
     [](C &c) {
         c.fault.straggler.units = {0};
         c.fault.straggler.windowStartNs = -1.0;
     },
     "straggler window bounds must be non-negative"},
    {"ConfigValidateDeath.RejectsRemainingFaultGaps", plainConfig,
     [](C &c) { c.fault.link.extraLatencyNs = -1.0; },
     "extraLatencyNs and retryBackoffNs"},
    {"ConfigValidateDeath.RejectsRemainingFaultGaps", plainConfig,
     [](C &c) { c.fault.link.count = c.numStacks() * 4 + 1; },
     "exceeds the directed"},
    {"ConfigValidateDeath.RejectsTracingWithoutBuffer", plainConfig,
     [](C &c) {
         c.traceOut = "trace.json";
         c.traceBufferEvents = 0;
     },
     "traceBufferEvents must be nonzero"},

    // ---- memory backend (src/mem) ----
    {"ConfigValidateDeath.RejectsZeroDramGeometry", plainConfig,
     [](C &c) { c.dram.banks = 0; }, "dram banks must be nonzero"},
    {"ConfigValidateDeath.RejectsZeroDramGeometry", plainConfig,
     [](C &c) { c.dram.rowBytes = 0; }, "dram rowBytes must be nonzero"},
    {"ConfigValidateDeath.RejectsZeroDramGeometry", plainConfig,
     [](C &c) { c.dram.busBits = 0; }, "dram busBits must be nonzero"},
    {"ConfigValidateDeath.RejectsNonPositiveDramBus", plainConfig,
     [](C &c) { c.dram.busGHz = 0.0; }, "dram busGHz must be positive"},
    {"ConfigValidateDeath.RejectsNegativeDramCoreTimings", plainConfig,
     [](C &c) { c.dram.tRcdNs = -1.0; },
     "dram tCAS/tRCD/tRP must be non-negative"},
    {"ConfigValidateDeath.RejectsBadRefreshParameters", plainConfig,
     [](C &c) { c.dram.tRefiNs = 0.0; }, "dram tREFI must be positive"},
    {"ConfigValidateDeath.RejectsBadRefreshParameters", plainConfig,
     [](C &c) { c.dram.tRfcNs = -1.0; }, "dram tRFC must be non-negative"},
    {"ConfigValidateDeath.RejectsBadRefreshParameters", plainConfig,
     [](C &c) { c.dram.refreshCatchupMax = 0; },
     "dram refreshCatchupMax must be nonzero"},
    // With refresh off the same knobs are dormant and tolerated.
    {"ConfigValidateDeath.RejectsBadRefreshParameters", plainConfig,
     [](C &c) {
         c.dram.refreshEnabled = false;
         c.dram.tRefiNs = 0.0;
         c.dram.refreshCatchupMax = 0;
     },
     ""},
    // 48 is not a power of two.
    {"ConfigValidateDeath.RejectsBadDdrBurstBytes", ddrConfig,
     [](C &c) { c.dram.burstBytes = 48; },
     "dram burstBytes must be a nonzero power of two"},
    {"ConfigValidateDeath.RejectsBadDdrBurstBytes", ddrConfig,
     [](C &c) {
         c.dram.rowBytes = 2048 + 32;
         c.dram.burstBytes = 64;
     },
     "multiple of burstBytes"},
    // 3 groups do not divide 8 banks.
    {"ConfigValidateDeath.RejectsBadBankGroups", ddrConfig,
     [](C &c) {
         c.dram.banks = 8;
         c.dram.bankGroups = 3;
     },
     "multiple of bankGroups"},
    {"ConfigValidateDeath.RejectsBadBankGroups", ddrConfig,
     [](C &c) { c.dram.bankGroups = 0; }, "multiple of bankGroups"},
    {"ConfigValidateDeath.RejectsRasShorterThanRcd", ddrConfig,
     [](C &c) { c.dram.tRasNs = c.dram.tRcdNs - 1.0; },
     "must cover at least"},
    {"ConfigValidateDeath.RejectsNegativeWrOrFaw", ddrConfig,
     [](C &c) { c.dram.tWrNs = -1.0; },
     "dram tWR and tFAW must be non-negative"},
    {"ConfigValidateDeath.RejectsNegativeWrOrFaw", ddrConfig,
     [](C &c) { c.dram.tFawNs = -1.0; },
     "dram tWR and tFAW must be non-negative"},
    // The ACT meter's bucket, 4 * ceil(tFAW / 4) ticks, fits 32 bits up
    // to a tFAW of 2^32 - 4 ticks.
    {"ConfigValidateDeath.RejectsActWindowPast32Bits", ddrConfig,
     [](C &c) { c.dram.tFawNs = 5e6; }, "must be below ~4.29 ms"},
    {"ConfigValidateDeath.RejectsActWindowPast32Bits", ddrConfig,
     [](C &c) { c.dram.tFawNs = 4294967.294; }, "must be below ~4.29 ms"},
    {"ConfigValidateDeath.RejectsActWindowPast32Bits", ddrConfig,
     [](C &c) { c.dram.tFawNs = 4294967.292; }, ""},
    // memBytesPerUnit is a power of two: 24 banks cannot divide it.
    {"ConfigValidateDeath.RejectsUnevenBrcSlices", ddrConfig,
     [](C &c) {
         c.dram.addrMap = DramAddrMapKind::BankRowColumn;
         c.dram.banks = 24;
         c.dram.bankGroups = 4;
     },
     "slices each unit's region evenly"},
    // The meter backend ignores the map and accepts the same count.
    {"ConfigValidateDeath.RejectsUnevenBrcSlices", plainConfig,
     [](C &c) { c.dram.banks = 24; }, ""},

    // ---- online serving (src/serve) ----
    {"ConfigValidateDeath.RejectsNonPositiveServingRate", servingConfig,
     [](C &c) { c.serving.ratePerUs = 0.0; }, "ratePerUs must be positive"},
    {"ConfigValidateDeath.RejectsSubUnityBurstFactor", servingConfig,
     [](C &c) { c.serving.burstFactor = 0.5; }, "burstFactor must be >= 1"},
    {"ConfigValidateDeath.RejectsOutOfRangeBurstFraction", servingConfig,
     [](C &c) { c.serving.burstFraction = 1.0; },
     "burstFraction must be within"},
    {"ConfigValidateDeath.RejectsOutOfRangeBurstFraction", servingConfig,
     [](C &c) { c.serving.burstFraction = -0.1; },
     "burstFraction must be within"},
    // factor x fraction >= 1 leaves no positive off-phase rate that
    // preserves the configured mean.
    {"ConfigValidateDeath.RejectsMeanDestroyingBurst", servingConfig,
     [](C &c) {
         c.serving.profile = RateProfile::Bursty;
         c.serving.burstFactor = 4.0;
         c.serving.burstFraction = 0.25;
     },
     "must stay below 1"},
    {"ConfigValidateDeath.RejectsNonPositiveServingPeriods", servingConfig,
     [](C &c) { c.serving.burstPeriodUs = 0.0; },
     "burstPeriodUs must be positive"},
    {"ConfigValidateDeath.RejectsNonPositiveServingPeriods", servingConfig,
     [](C &c) { c.serving.diurnalPeriodUs = -1.0; },
     "diurnalPeriodUs must be positive"},
    {"ConfigValidateDeath.RejectsOutOfRangeDiurnalDepth", servingConfig,
     [](C &c) { c.serving.diurnalDepth = 1.0; },
     "diurnalDepth must be within"},
    {"ConfigValidateDeath.RejectsNegativeZipfExponent", servingConfig,
     [](C &c) { c.serving.zipfS = -0.1; }, "zipfS must be non-negative"},
    {"ConfigValidateDeath.RejectsBadTenantCounts", servingConfig,
     [](C &c) { c.serving.tenants = 0; }, "tenants must be nonzero"},
    {"ConfigValidateDeath.RejectsBadTenantCounts", servingConfig,
     [](C &c) { c.serving.tenants = 65; }, "tenants must be at most 64"},
    {"ConfigValidateDeath.RejectsBadTenantWeights", servingConfig,
     [](C &c) {
         c.serving.tenants = 2;
         c.serving.tenantWeights = {1.0, 2.0, 3.0};
     },
     "tenantWeights has 3 entries"},
    {"ConfigValidateDeath.RejectsBadTenantWeights", servingConfig,
     [](C &c) {
         c.serving.tenants = 2;
         c.serving.tenantWeights = {1.0, 0.0};
     },
     "tenant weights must be positive"},
    {"ConfigValidateDeath.RejectsNonPositiveSlo", servingConfig,
     [](C &c) { c.serving.sloNs = 0.0; }, "sloNs must be positive"},

    // ---- hierarchical load balancing (src/sched/lb) ----
    {"ConfigValidateDeath.RejectsLbWithNoTiers", hlbConfig,
     [](C &c) {
         c.lb.intraTier = LbTierKind::None;
         c.lb.interTier = LbTierKind::None;
     },
     "both tiers set to none"},
    {"ConfigValidateDeath.RejectsZeroHotK", hlbConfig,
     [](C &c) { c.lb.hotK = 0; }, "lb hotK must be nonzero"},
    {"ConfigValidateDeath.RejectsOversizedDecayShift", hlbConfig,
     [](C &c) { c.lb.decayShift = 64; }, "lb decayShift must be at most 63"},
    {"ConfigValidateDeath.RejectsZeroChunkWithStealingTier", hlbConfig,
     [](C &c) {
         c.lb.intraTier = LbTierKind::Stealing;
         c.lb.chunkSize = 0;
     },
     "chunkSize must be nonzero when a stealing tier"},
    // With no stealing tier the knob is dormant and tolerated.
    {"ConfigValidateDeath.RejectsZeroChunkWithStealingTier", hlbConfig,
     [](C &c) {
         c.lb.intraTier = LbTierKind::Average;
         c.lb.interTier = LbTierKind::Reserve;
         c.lb.chunkSize = 0;
     },
     ""},
    {"ConfigValidateDeath.RejectsOutOfRangeReserveFrac", hlbConfig,
     [](C &c) {
         c.lb.interTier = LbTierKind::Reserve;
         c.lb.reserveFrac = 1.5;
     },
     "reserveFrac must be within"},
    // Without a reserve tier the knob is dormant and tolerated.
    {"ConfigValidateDeath.RejectsOutOfRangeReserveFrac", hlbConfig,
     [](C &c) { c.lb.reserveFrac = -1.0; }, ""},
    {"ConfigValidateDeath.RejectsMigrationWithoutBalancer", plainConfig,
     [](C &c) { c.lb.migration.enabled = true; },
     "migration requires the load balancer"},
    {"ConfigValidateDeath.RejectsZeroMigrationThreshold", hlbConfig,
     [](C &c) { c.lb.migration.threshold = 0; },
     "lb migration threshold must be nonzero"},
    {"ConfigValidateDeath.RejectsZeroMigrationCap", hlbConfig,
     [](C &c) { c.lb.migration.maxPerExchange = 0; },
     "lb migration maxPerExchange must be nonzero"},

    // ---- unit failures ----
    {"ConfigValidateDeath.RejectsOutOfRangeFailedUnit", plainConfig,
     [](C &c) { c.fault.unitFailure.units = {c.numUnits()}; },
     "failed unit id .* is out of range"},
    {"ConfigValidateDeath.RejectsKillingEveryUnit", plainConfig,
     [](C &c) { c.fault.unitFailure.count = c.numUnits(); },
     "unit failures must leave at least one live unit"},
    // Duplicated explicit ids must not evade the live-unit floor.
    {"ConfigValidateDeath.RejectsKillingEveryUnit", plainConfig,
     [](C &c) {
         for (UnitId u = 0; u < c.numUnits(); ++u) {
             c.fault.unitFailure.units.push_back(u);
             c.fault.unitFailure.units.push_back(u);
         }
     },
     "unit failures must leave at least one live unit"},
    {"ConfigValidateDeath.RejectsNegativeFailureTimes", plainConfig,
     [](C &c) {
         c.fault.unitFailure.count = 1;
         c.fault.unitFailure.failAtNs = -1.0;
     },
     "failAtNs and recoverAtNs must be non-negative"},
    {"ConfigValidateDeath.RejectsRecoveryBeforeFailure", plainConfig,
     [](C &c) {
         c.fault.unitFailure.count = 1;
         c.fault.unitFailure.failAtNs = 500.0;
         c.fault.unitFailure.recoverAtNs = 500.0;
     },
     "must exceed failAtNs"},
    {"ConfigValidateDeath.RejectsNonPositiveAckTimeout", plainConfig,
     [](C &c) {
         c.fault.unitFailure.count = 1;
         c.fault.unitFailure.ackTimeoutNs = 0.0;
     },
     "ackTimeoutNs must be positive"},
    {"ConfigValidateDeath.RejectsNegativeRedispatchBackoff", plainConfig,
     [](C &c) {
         c.fault.unitFailure.count = 1;
         c.fault.unitFailure.redispatchBackoffNs = -1.0;
     },
     "redispatchBackoffNs must be\\s+non-negative"},
    {"ConfigValidateDeath.RejectsZeroMaxRedispatch", plainConfig,
     [](C &c) {
         c.fault.unitFailure.count = 1;
         c.fault.unitFailure.maxRedispatch = 0;
     },
     "maxRedispatch must be nonzero"},

    // ---- the raw defaults ----
    {"ConfigDeath.ValidateRejectsBadConfigs", defaultConfig,
     [](C &c) { c.memBytesPerUnit = 1000; }, "power of two"},
    {"ConfigDeath.ValidateRejectsBadConfigs", defaultConfig,
     [](C &c) {
         c.traveller.style = CacheStyle::TravellerSramTags;
         c.traveller.bypassProb = 1.5;
     },
     "bypassProb"},
    {"ConfigDeath.ValidateRejectsBadConfigs", defaultConfig,
     [](C &c) { c.meshX = 0; }, "mesh"},

    // ---- knobs that are dormant while their feature is off ----
    {"ConfigValidate.AcceptsDormantKnobs", plainConfig,
     [](C &c) {
         c.traveller.ratioDenom = 3;
         c.traveller.campCount = 0;
         c.traveller.bypassProb = 1.5;
         c.traveller.tagCheckNs = -1.0;
     },
     ""},
    {"ConfigValidate.AcceptsDormantKnobs", plainConfig,
     [](C &c) { c.sched.stealBatch = 0; }, ""},
    {"ConfigValidate.AcceptsDormantKnobs", plainConfig,
     [](C &c) {
         c.tlb.enabled = false;
         c.tlb.pageBytes = 3000;
         c.tlb.entries = 5;
     },
     ""},
    {"ConfigValidate.AcceptsDormantKnobs", plainConfig,
     [](C &c) {
         c.dram.burstBytes = 48;
         c.dram.bankGroups = 0;
         c.dram.tRasNs = c.dram.tRcdNs - 1.0;
         c.dram.tWrNs = -1.0;
     },
     ""},
    // The meter backend keeps no ACT window.
    {"ConfigValidate.AcceptsDormantKnobs", plainConfig,
     [](C &c) { c.dram.tFawNs = 5e6; }, ""},
    {"ConfigValidate.AcceptsDormantKnobs", plainConfig,
     [](C &c) { c.traceBufferEvents = 0; }, ""},
    {"ConfigValidate.AcceptsDormantKnobs", plainConfig,
     [](C &c) { c.fault.link.maxRetries = 0; }, ""},
    {"ConfigValidate.AcceptsDormantKnobs", plainConfig,
     [](C &c) {
         c.serving.ratePerUs = 0.0;
         c.serving.tenants = 0;
         c.serving.sloNs = 0.0;
     },
     ""},
    {"ConfigValidate.AcceptsDormantKnobs", plainConfig,
     [](C &c) {
         c.lb.intraTier = LbTierKind::None;
         c.lb.interTier = LbTierKind::None;
         c.lb.hotK = 0;
         c.lb.decayShift = 64;
         c.lb.migration.threshold = 0;
     },
     ""},
    {"ConfigValidate.AcceptsDormantKnobs", plainConfig,
     [](C &c) {
         c.fault.unitFailure.failAtNs = -1.0;
         c.fault.unitFailure.ackTimeoutNs = 0.0;
         c.fault.unitFailure.maxRedispatch = 0;
     },
     ""},
};

/** A named workload's benchmark-size spec. */
template <const char *Name>
WorkloadSpec
spec()
{
    WorkloadSpec s;
    s.name = Name;
    return s;
}

constexpr char pr[] = "pr";
constexpr char astar[] = "astar";
constexpr char gcn[] = "gcn";
constexpr char spmv[] = "spmv";
constexpr char kmeans[] = "kmeans";
constexpr char knn[] = "knn";
constexpr char kv[] = "kv";

using W = WorkloadSpec;

/**
 * WorkloadSpec's rules: knobs a workload constructor would otherwise
 * assert on (or read past) are refused with a message naming the knob
 * and its bound; boundary values and other workloads' knobs stay valid.
 */
const Row<W> workloadRows[] = {
    // ---- R-MAT size: vertices and arcs fit in 32 bits ----
    {"WorkloadValidate.RejectsGraphPast32Bits", spec<pr>,
     [](W &w) { w.scale = 40; },
     "scale 40 is too large: at edgeFactor 16 .* up to scale 26"},
    {"WorkloadValidate.RejectsGraphPast32Bits", spec<pr>,
     [](W &w) { w.scale = 27; }, "up to scale 26"},
    {"WorkloadValidate.RejectsGraphPast32Bits", spec<astar>,
     [](W &w) {
         w.scale = 20;
         w.edgeFactor = 4096;
     },
     "scale 20 is too large: at edgeFactor 4096 .* up to scale 18"},
    {"WorkloadValidate.RejectsGraphPast32Bits", spec<gcn>,
     [](W &w) { w.edgeFactor = 1u << 31; },
     "edgeFactor 2147483648 is too large.*at most 2147483647"},
    {"WorkloadValidate.RejectsGraphPast32Bits", spec<astar>,
     [](W &w) { w.scale = 0; }, "scale must be at least 1 for astar"},
    // ---- per-workload counts ----
    {"WorkloadValidate.RejectsZeroAstarQueries", spec<astar>,
     [](W &w) { w.astarQueries = 0; },
     "astarQueries 0 must be at least 1: astar has no task"},
    {"WorkloadValidate.RejectsKmeansPointsBelowClusters", spec<kmeans>,
     [](W &w) { w.kmeansPoints = 0; },
     "kmeansPoints 0 must be at least kmeansClusters \\(16\\)"},
    {"WorkloadValidate.RejectsKmeansPointsBelowClusters", spec<kmeans>,
     [](W &w) { w.kmeansPoints = 15; },
     "kmeansPoints 15 must be at least kmeansClusters"},
    {"WorkloadValidate.RejectsKmeansPointsBelowClusters", spec<kmeans>,
     [](W &w) {
         w.kmeansPoints = 0;
         w.kmeansClusters = 0;
     },
     "kmeansClusters must be at least 1"},
    {"WorkloadValidate.RejectsKnnPointsBelowK", spec<knn>,
     [](W &w) { w.knnPoints = 1; },
     "knnPoints 1 must be at least knnK \\(4\\)"},
    {"WorkloadValidate.RejectsKnnPointsBelowK", spec<knn>,
     [](W &w) { w.knnK = 0; }, "knnK must be at least 1"},
    {"WorkloadValidate.RejectsZeroIterationCounts", spec<kmeans>,
     [](W &w) { w.kmeansIters = 0; }, "kmeansIters must be at least 1"},
    {"WorkloadValidate.RejectsZeroIterationCounts", spec<gcn>,
     [](W &w) { w.gcnLayers = 0; }, "gcnLayers must be at least 1"},
    {"WorkloadValidate.RejectsZeroIterationCounts", spec<spmv>,
     [](W &w) { w.spmvIters = 0; }, "spmvIters must be at least 1"},

    // ---- boundaries and dormant knobs stay valid ----
    {"WorkloadValidate.AcceptsBoundariesAndDormantKnobs", spec<pr>,
     [](W &) {}, ""},
    {"WorkloadValidate.AcceptsBoundariesAndDormantKnobs", spec<pr>,
     [](W &w) { w.scale = 26; }, ""},
    {"WorkloadValidate.AcceptsBoundariesAndDormantKnobs", spec<pr>,
     [](W &w) {
         w.scale = 31;
         w.edgeFactor = 0;
     },
     ""},
    {"WorkloadValidate.AcceptsBoundariesAndDormantKnobs", spec<gcn>,
     [](W &w) {
         w.scale = 0;
         w.edgeFactor = (1u << 31) - 1;
     },
     ""},
    // A graph file replaces the R-MAT knobs.
    {"WorkloadValidate.AcceptsBoundariesAndDormantKnobs", spec<pr>,
     [](W &w) {
         w.graphFile = "graph.txt";
         w.scale = 40;
     },
     ""},
    // pr runs to convergence with prIters = 0.
    {"WorkloadValidate.AcceptsBoundariesAndDormantKnobs", spec<pr>,
     [](W &w) { w.prIters = 0; }, ""},
    {"WorkloadValidate.AcceptsBoundariesAndDormantKnobs", spec<kmeans>,
     [](W &w) { w.kmeansPoints = w.kmeansClusters; }, ""},
    {"WorkloadValidate.AcceptsBoundariesAndDormantKnobs", spec<knn>,
     [](W &w) { w.knnPoints = w.knnK; }, ""},
    {"WorkloadValidate.AcceptsBoundariesAndDormantKnobs", spec<kmeans>,
     [](W &w) {
         w.scale = 40;
         w.astarQueries = 0;
         w.knnPoints = 0;
     },
     ""},
    {"WorkloadValidate.AcceptsBoundariesAndDormantKnobs", spec<kv>,
     [](W &w) {
         w.scale = 40;
         w.kmeansPoints = 0;
         w.gcnLayers = 0;
     },
     ""},
};

/** Runs every row of @p table that carries this test's id. */
template <typename Cfg, std::size_t K>
class RuleRows : public ::testing::Test
{
  public:
    RuleRows(const Row<Cfg> (&table)[K], std::string id)
        : table(table), id(std::move(id))
    {
    }

    void
    TestBody() override
    {
        for (std::size_t i = 0; i < K; ++i) {
            const Row<Cfg> &r = table[i];
            if (id != r.test)
                continue;
            Cfg cfg = r.base();
            r.mutate(cfg);
            const std::string err = cfg.validationError();
            if (*r.expect == '\0')
                EXPECT_EQ(err, "") << "row " << i << " must stay valid";
            else
                EXPECT_TRUE(std::regex_search(err, std::regex(r.expect)))
                    << "row " << i << ": got \"" << err
                    << "\", want a match for \"" << r.expect << "\"";
        }
    }

  private:
    const Row<Cfg> (&table)[K];
    std::string id;
};

/** Register one gtest test per distinct id in @p table. */
template <typename Cfg, std::size_t K>
void
registerRows(const Row<Cfg> (&table)[K])
{
    std::set<std::string> seen;
    for (const Row<Cfg> &r : table) {
        const std::string id = r.test;
        if (!seen.insert(id).second)
            continue;
        const auto dot = id.find('.');
        ::testing::RegisterTest(
            id.substr(0, dot).c_str(), id.substr(dot + 1).c_str(), nullptr,
            nullptr, __FILE__, __LINE__, [&table, id]() -> ::testing::Test * {
                return new RuleRows<Cfg, K>(table, id);
            });
    }
}

const bool rowsRegistered = [] {
    registerRows(rows);
    registerRows(workloadRows);
    return true;
}();

} // namespace

} // namespace abndp
