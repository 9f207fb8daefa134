/**
 * @file
 * System configuration: every knob from Table 1 (system configurations)
 * and Table 2 (evaluated designs) of the ABNDP paper, with the paper's
 * defaults, plus derived quantities used throughout the simulator.
 */

#ifndef ABNDP_COMMON_CONFIG_HH
#define ABNDP_COMMON_CONFIG_HH

#include <cstdint>
#include <ostream>
#include <string>

#include "common/types.hh"
#include "fault/fault_config.hh"
#include "sched/lb/lb_config.hh"
#include "serve/serving_config.hh"

namespace abndp
{

/** Task scheduling policies (paper Sections 2.3 and 5, Table 2). */
enum class SchedPolicy
{
    /** Co-locate each task with its main (first hint) data element: B. */
    Colocate,
    /** Lowest total distance over all hint addresses: Sm / C. */
    LowestDistance,
    /** Hybrid score costmem + B * costload: Sh / O. */
    Hybrid,
};

/** Data-cache styles evaluated in Figure 13. */
enum class CacheStyle
{
    /** No remote-data cache at all (B, Sm, Sl, Sh). */
    None,
    /** Traveller Cache: DRAM data, SRAM tags (ABNDP). */
    TravellerSramTags,
    /** Pure on-chip SRAM data cache (impractical area). */
    SramData,
    /** DRAM data cache with tags co-located in DRAM. */
    DramTags,
};

/** Replacement policies for the generic set-associative cache. */
enum class ReplPolicy
{
    Lru,
    Random,
    Fifo,
};

/** Geometry of a set-associative SRAM cache. */
struct CacheGeometry
{
    std::uint64_t sizeBytes = 0;
    std::uint32_t assoc = 1;
    std::uint32_t lineBytes = cachelineBytes;
    ReplPolicy repl = ReplPolicy::Lru;
    /**
     * Hash the set index (data caches: the range-partitioned simulated
     * address space aliases pathologically under low-bit indexing).
     * Sequential-access caches (L1-I) keep low-bit indexing so
     * consecutive blocks never conflict.
     */
    bool hashedIndex = true;

    std::uint64_t numSets() const { return sizeBytes / lineBytes / assoc; }
};

/** Per-core TLB parameters (Section 3.2: local TLBs per core). */
struct TlbConfig
{
    /** Total entries (organized set-associatively). */
    std::uint32_t entries = 64;
    std::uint32_t assoc = 4;
    std::uint32_t pageBytes = 4096;
    /** Page-walk latency on a miss (walker hits cached page tables). */
    double missNs = 50.0;
    bool enabled = true;
};

/**
 * Memory timing backends behind the MemBackend seam (src/mem).
 * Meter is the fast bucketed-backfill default (bit-identical to the
 * historical DramChannel); Ddr adds a per-bank state machine with
 * page-policy, tRAS/tWR recovery and tFAW ACT-window tracking.
 */
enum class MemBackendKind
{
    Meter,
    Ddr,
};

/** DDR page-management policies (DdrBackend only). */
enum class PagePolicy
{
    /** Leave the row open after every access (row-hit friendly). */
    Open,
    /** Auto-precharge after every access (conflict friendly). */
    Close,
    /** Per-bank saturating hit history picks open vs close. */
    Adaptive,
};

/**
 * Channel address-interleave orders (DdrBackend only), low bits first.
 * The names list the fields from most- to least-significant, in the
 * style of M2NDP's memory_decode split.
 */
enum class DramAddrMapKind
{
    /** row : bank : column — consecutive rows rotate across banks
     *  (matches the historical meter decode; preserves row locality). */
    RowBankColumn,
    /** row : column : bank — consecutive bursts rotate across banks
     *  (maximum bank parallelism, minimum row locality). */
    RowColumnBank,
    /** bank : row : column — each bank owns one contiguous slice of
     *  the unit's region (bank conflicts follow the data layout). */
    BankRowColumn,
};

/** Display name of a backend kind ("meter" / "ddr"). */
const char *memBackendName(MemBackendKind k);
/** Parse a backend name; fatal() on anything unknown. */
MemBackendKind memBackendFromName(const std::string &name);
/** Display name of a page policy ("open" / "close" / "adaptive"). */
const char *pagePolicyName(PagePolicy p);
/** Parse a page-policy name; fatal() on anything unknown. */
PagePolicy pagePolicyFromName(const std::string &name);
/** Display name of an address-map order ("rbc" / "rcb" / "brc"). */
const char *dramAddrMapName(DramAddrMapKind k);
/** Parse an address-map name; fatal() on anything unknown. */
DramAddrMapKind dramAddrMapFromName(const std::string &name);

/** DRAM channel timing/energy parameters (Table 1, HBM-like). */
struct DramConfig
{
    /** Timing backend every access of this channel flows through. */
    MemBackendKind backend = MemBackendKind::Meter;
    /** Channel data-bus width in bits. */
    std::uint32_t busBits = 128;
    /** Number of independent banks per channel. */
    std::uint32_t banks = 8;
    /** Row-buffer (page) size in bytes. */
    std::uint32_t rowBytes = 2048;
    /** Column access latency. */
    double tCasNs = 17.0;
    /** Row-to-column delay. */
    double tRcdNs = 17.0;
    /** Precharge latency. */
    double tRpNs = 17.0;
    /** Data-bus clock in GHz (DDR: 2 transfers/cycle). */
    double busGHz = 1.0;
    /** Read/write access energy per bit. */
    double pjPerBitRw = 5.0;
    /** Activate+precharge energy per row operation. */
    double pjActPre = 535.8;
    /** All-bank refresh interval (per-bank staggered). */
    double tRefiNs = 3900.0;
    /** Refresh cycle time (bank unavailable). */
    double tRfcNs = 260.0;
    /** Model refresh interference. */
    bool refreshEnabled = true;
    /**
     * Refreshes accounted per access when a bank's schedule lags the
     * access tick (lazy catch-up bound; the rest hides in idle time).
     */
    std::uint32_t refreshCatchupMax = 4;

    // ---- DdrBackend-only knobs (ignored by the meter backend) ----
    /** Page-management policy. */
    PagePolicy pagePolicy = PagePolicy::Open;
    /** Address-interleave order across banks/rows/columns. */
    DramAddrMapKind addrMap = DramAddrMapKind::RowBankColumn;
    /** Bank groups per channel (banks are dealt round-robin across
     *  groups; must divide @ref banks). */
    std::uint32_t bankGroups = 4;
    /** Burst (minimum transfer) granularity in bytes; the
     *  RowColumnBank order interleaves banks at this stride. */
    std::uint32_t burstBytes = 64;
    /** Minimum ACT-to-PRE interval (row must stay open this long). */
    double tRasNs = 34.0;
    /** Write recovery: burst end to PRE on the same bank. */
    double tWrNs = 15.0;
    /** Four-activate window: at most 4 ACTs per channel per tFAW. */
    double tFawNs = 30.0;

    /** HBM-like channel (Table 1 default). */
    static DramConfig hbm() { return {}; }

    /**
     * HMC-like vault: narrower, faster bus and smaller rows. The paper
     * notes the design works with either organization.
     */
    static DramConfig
    hmc()
    {
        DramConfig cfg;
        cfg.busBits = 32;
        cfg.busGHz = 2.5;
        cfg.rowBytes = 256;
        cfg.tCasNs = 13.75;
        cfg.tRcdNs = 13.75;
        cfg.tRpNs = 13.75;
        cfg.banks = 16;
        cfg.bankGroups = 4;
        cfg.tRasNs = 27.5;
        cfg.tWrNs = 11.0;
        cfg.tFawNs = 20.0;
        return cfg;
    }
};

/** Intra-stack NoC organizations (the paper defaults to a crossbar). */
enum class IntraTopology
{
    /** Single-hop crossbar: constant Dintra (Table 1). */
    Crossbar,
    /** Bidirectional ring: Dintra scales with ring distance. */
    Ring,
};

/** Interconnect parameters (Table 1). */
struct NetConfig
{
    IntraTopology intraTopology = IntraTopology::Crossbar;
    /** Intra-stack hop latency (crossbar traversal or one ring hop). */
    double intraHopNs = 1.5;
    /** Intra-stack energy per bit. */
    double intraPjPerBit = 0.4;
    /** Intra-stack link width in bits. */
    std::uint32_t intraLinkBits = 128;
    /** Intra-stack link clock GHz (serialization). */
    double intraGHz = 1.0;
    /** Inter-stack per-hop latency. */
    double interHopNs = 10.0;
    /** Inter-stack energy per bit per hop. */
    double interPjPerBit = 4.0;
    /** Inter-stack link bandwidth per direction, GB/s. */
    double interGBs = 32.0;
};

/** Traveller Cache configuration (paper Section 4, Table 1). */
struct TravellerConfig
{
    CacheStyle style = CacheStyle::None;
    /** Fraction 1/R of local memory used as cache space (R = ratioDenom). */
    std::uint64_t ratioDenom = 64;
    /** Set associativity of the DRAM cache. */
    std::uint32_t assoc = 4;
    /** Number of camp locations C per block (groups = C + 1). */
    std::uint32_t campCount = 3;
    /** Probability that an insertion bypasses the cache. */
    double bypassProb = 0.4;
    /** Skewed per-group unit mapping (vs identical; Figure 11). */
    bool skewedMapping = true;
    /** Replacement policy within a set. */
    ReplPolicy repl = ReplPolicy::Random;
    /** SRAM tag-check latency at a camp location. */
    double tagCheckNs = 1.0;
    /** Pure-SRAM data cache access latency (Figure 13 variant). */
    double sramDataNs = 2.0;
    /**
     * Hash the camp-cache set index instead of the paper's low-bit
     * index. Low-bit is the default because it keeps a set's ways in
     * one DRAM row of the cache region (ROADMAP item 4); the hashed
     * variant exists to measure that claim under the DDR backend
     * (EXPERIMENTS.md).
     */
    bool hashedIndex = false;
};

/** Scheduler configuration (paper Section 5, Table 1). */
struct SchedConfig
{
    SchedPolicy policy = SchedPolicy::Colocate;
    /**
     * Registered scheduling-policy name (src/sched/policy_registry.hh).
     * Empty (the default) derives the policy from @ref policy; a
     * nonempty name overrides the enum and is looked up in the registry,
     * which is how out-of-tree design points plug in custom policies.
     */
    std::string policyName;
    /** Enable dynamic work stealing (Sl). */
    bool workStealing = false;
    /**
     * Hybrid weight B = alpha * Dinter; the paper's default alpha is half
     * the inter-stack mesh diameter (3 for the 4x4 mesh).
     */
    double hybridAlpha = 3.0;
    /** If true derive alpha = d/2 from the topology diameter. */
    bool autoAlpha = true;
    /** Workload exchange interval, in core cycles. */
    std::uint64_t exchangeIntervalCycles = 100000;
    /** Tasks in the prefetch window of each task queue. */
    std::uint32_t prefetchWindow = 2;
    /**
     * Outstanding demand-miss fetches the core/prefetch engine overlaps
     * for the executing task (1 = strictly in-order misses).
     */
    std::uint32_t missPipelineDepth = 1;
    /** Tasks in the scheduling window of each task queue. */
    std::uint32_t schedulingWindow = 8;
    /** Max tasks stolen per steal attempt. */
    std::uint32_t stealBatch = 8;
    /**
     * Weight of the task-descriptor shipping cost in the hybrid score
     * (fraction of the data-packet distance cost; a 32-byte descriptor
     * vs an 80-byte data packet gives ~0.4).
     */
    double forwardPenaltyFrac = 0.4;
    /** Latency of one scheduling-window decision (hardware scorer). */
    double decisionNs = 4.0;
    /**
     * Relative W deviation treated as balanced (costload = 0). Queue
     * workloads are exchanged coarsely; with shallow queues a +-1 task
     * difference is noise, not imbalance.
     */
    double costloadDeadband = 0.25;
    /**
     * Score all units exhaustively (paper behaviour). When false, a pruned
     * candidate set (camp/home locations + most idle units) is used; the
     * ablation bench shows this is nearly equivalent and much faster.
     */
    bool exhaustiveScoring = true;
};

/** Host (non-NDP) baseline H configuration (paper Section 6). */
struct HostConfig
{
    std::uint32_t cores = 16;
    double freqGHz = 2.6;
    /** Out-of-order issue width / effective IPC on compute. */
    double ipc = 2.0;
    /**
     * Effective memory-level parallelism factor for stall overlap. The
     * evaluated applications are pointer-chasing and irregular, which
     * limits achievable MLP well below the ROB bound.
     */
    double mlp = 1.5;
    CacheGeometry llc { 20ull * 1024 * 1024, 16, cachelineBytes,
                        ReplPolicy::Lru };
    double llcHitNs = 12.0;
    std::uint32_t ddrChannels = 4;
    /** Loaded random-access latency (row misses dominate). */
    double ddrLatencyNs = 90.0;
    /** DDR4-2400 per-channel bandwidth, GB/s. */
    double ddrGBsPerChannel = 19.2;
};

/**
 * Full system configuration. Defaults reproduce Table 1: 4x4 stacks in a
 * mesh, 8 NDP units per stack, 2 cores per unit at 2 GHz, 512 MB per unit.
 */
struct SystemConfig
{
    // ---- Topology ----
    std::uint32_t meshX = 4;
    std::uint32_t meshY = 4;
    std::uint32_t unitsPerStack = 8;
    std::uint32_t coresPerUnit = 2;
    double coreFreqGHz = 2.0;
    std::uint64_t memBytesPerUnit = 512ull * 1024 * 1024;

    // ---- Per-core structures ----
    CacheGeometry l1d { 64 * 1024, 4, cachelineBytes, ReplPolicy::Lru };
    CacheGeometry l1i { 32 * 1024, 2, cachelineBytes, ReplPolicy::Lru,
                        /*hashedIndex=*/false };
    std::uint64_t prefetchBufBytes = 4 * 1024;
    /** Prefetch-buffer hit latency (small SRAM FIFO next to the core). */
    double pbHitNs = 1.0;
    /** L1-I miss fill latency (local code fill, no remote traffic). */
    double l1iMissNs = 40.0;
    TlbConfig tlb;
    /** Instruction footprint of one task's handler (L1-I modeling). */
    std::uint32_t taskCodeBytes = 1024;

    // ---- Substrates ----
    DramConfig dram;
    NetConfig net;
    TravellerConfig traveller;
    SchedConfig sched;
    HostConfig host;

    // ---- Core energy model (Section 6) ----
    double corePjPerInstr = 371.0;
    double coreIdleUw = 163.0;
    /**
     * Background (static) power per NDP unit: DRAM refresh/standby plus
     * always-on logic. Not in Table 1; set so that the static share of
     * the Figure-7 baseline breakdown is in the paper's range.
     */
    double staticMwPerUnit = 12.0;

    /**
     * Hardware fault & straggler injection (off by default). All draws
     * are seeded from @ref seed, so injected faults keep runs
     * bit-deterministic.
     */
    FaultConfig fault;

    /**
     * Online serving mode (src/serve): an open-loop, seeded request
     * stream injected without epoch drain barriers. Off by default
     * (requests == 0); batch runs never read these knobs.
     */
    ServingConfig serving;

    /**
     * Hierarchical load balancing + hotness-driven re-homing
     * (src/sched/lb). Off by default (enabled == false); the `HLB`
     * family of design points turns it on, and classic designs never
     * read these knobs.
     */
    LbConfig lb;

    // ---- Simulation ----
    std::uint64_t seed = 1;
    /** Cap on bulk-synchronous epochs (0 = run to completion). */
    std::uint64_t maxEpochs = 0;

    // ---- Observability (src/obs; see docs/OBSERVABILITY.md) ----
    /**
     * Chrome trace-event JSON output path ("" = tracing disabled).
     * When set, hot paths record task/cache/CAMP/NoC events into a
     * ring buffer and the run exports a Perfetto-loadable trace.
     * Tracing is observational only: it never changes simulated
     * timing, so metrics are bit-identical with tracing on or off.
     */
    std::string traceOut;
    /** Event ring-buffer capacity; oldest events drop once full. */
    std::uint64_t traceBufferEvents = 1ull << 20;
    /**
     * Dump interval stats from the hierarchical registry every N
     * bulk-synchronous epochs (0 = disabled). Counters print as
     * per-interval deltas, gauges as current values.
     */
    std::uint64_t statsInterval = 0;
    /** Interval-stats output path ("" = stdout). */
    std::string statsOut;

    // ---- Correctness checking (src/check; see docs/TESTING.md) ----
    /**
     * Arm the machine invariant checkers: conservation laws (task
     * accounting, hop/packet reconciliation, cache occupancy, energy
     * additivity, bandwidth-bucket capacity) are audited at every
     * epoch boundary and at run end, and any violation panic()s with
     * a full diagnostic. Like tracing, checking is observational only:
     * metrics are bit-identical with checkers on or off.
     */
    bool checkInvariants = false;

    // ---- Derived quantities ----
    std::uint32_t numStacks() const { return meshX * meshY; }
    std::uint32_t numUnits() const { return numStacks() * unitsPerStack; }
    std::uint32_t numCores() const { return numUnits() * coresPerUnit; }
    std::uint64_t totalMemBytes() const
    {
        return static_cast<std::uint64_t>(numUnits()) * memBytesPerUnit;
    }
    /** Ticks per core cycle (tick = 1 ps). */
    Tick ticksPerCycle() const
    {
        return static_cast<Tick>(1000.0 / coreFreqGHz);
    }
    /** Inter-stack mesh diameter in hops. */
    std::uint32_t meshDiameter() const { return (meshX - 1) + (meshY - 1); }
    /** Number of camp groups (C + 1, incl. the home group). */
    std::uint32_t numGroups() const { return traveller.campCount + 1; }
    /** DRAM cache bytes per unit. */
    std::uint64_t travellerBytesPerUnit() const
    {
        return memBytesPerUnit / traveller.ratioDenom;
    }
    /** DRAM cache sets per unit. */
    std::uint64_t travellerSets() const
    {
        return travellerBytesPerUnit() / cachelineBytes / traveller.assoc;
    }

    /**
     * The message of the first rule this configuration breaks, or ""
     * when it breaks none. The one statement of the config rules:
     * validate(), the CLI and the config fuzzer all ask it.
     */
    std::string validationError() const;

    /** fatal() with validationError()'s message on a bad user config. */
    void validate() const;

    /** Pretty-print the configuration (bench_table1_config). */
    void print(std::ostream &os) const;
};

/** Named design points of Table 2 (plus the host-only H). */
enum class Design
{
    H,  ///< host CPU only
    B,  ///< co-locate with main element, no cache
    Sm, ///< lowest-distance, no cache
    Sl, ///< lowest-distance + work stealing, no cache
    Sh, ///< hybrid scheduling, no cache
    C,  ///< lowest-distance + Traveller Cache
    O,  ///< hybrid scheduling + Traveller Cache (full ABNDP)
    Hlb,  ///< O + hierarchical two-tier load balancing (extension)
    HlbM, ///< Hlb + hotness-driven data re-homing (extension)
};

/** Short display name of a design ("B", "Sm", ...). */
const char *designName(Design d);

/**
 * Apply a Table-2 design point on top of a base configuration: the
 * enum-keyed alias of composeDesign(base, designName(d)). Defined next
 * to the design registry (src/sched/policy_registry.cc), which is the
 * one composition table.
 */
SystemConfig applyDesign(SystemConfig base, Design d);

} // namespace abndp

#endif // ABNDP_COMMON_CONFIG_HH
