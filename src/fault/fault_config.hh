/**
 * @file
 * Configuration of the deterministic fault & straggler injection
 * subsystem. The paper studies skew that originates in the *workload*
 * (power-law degree distributions); these knobs inject skew that
 * originates in the *hardware* — slow NDP units, flaky mesh links, and
 * DRAM banks stuck in error-retry — so the resilience of each Table-2
 * design can be measured (bench_resilience).
 *
 * Every stochastic draw is taken from Rng instances seeded from
 * SystemConfig::seed, so the usual bit-determinism guarantee (same
 * config => same metrics) holds under any fault configuration.
 */

#ifndef ABNDP_FAULT_FAULT_CONFIG_HH
#define ABNDP_FAULT_FAULT_CONFIG_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace abndp
{

/**
 * Straggler NDP units: a chosen subset of units runs derated, modeling
 * a slow vault (thermal throttling, a marginal die, a failing sensor).
 */
struct StragglerFaultConfig
{
    /** Explicit straggler unit ids; takes precedence over @ref count. */
    std::vector<std::uint32_t> units;
    /** Number of stragglers picked deterministically from the seed. */
    std::uint32_t count = 0;
    /**
     * Core-speed factor of a straggler in (0, 1]: compute cycles and
     * core-local latencies (L1/TLB/prefetch-buffer hits, scheduling
     * decisions) are stretched by 1/computeDerate.
     */
    double computeDerate = 1.0;
    /**
     * Local-memory speed factor in (0, 1]: the straggler's DRAM channel
     * core latency and burst are stretched by 1/bandwidthDerate.
     */
    double bandwidthDerate = 1.0;
    /**
     * Optional activity window [windowStartNs, windowEndNs) of simulated
     * time; both zero means the derating is permanent.
     */
    double windowStartNs = 0.0;
    double windowEndNs = 0.0;

    bool
    enabled() const
    {
        return (count > 0 || !units.empty())
            && (computeDerate < 1.0 || bandwidthDerate < 1.0);
    }
};

/**
 * Faulty inter-stack mesh links: selected directed hop edges add fixed
 * latency and/or drop packets transiently. A drop is repaired by bounded
 * retry with exponential backoff, modeled as re-reservations of the link
 * at backed-off times; retries/drops are counted (netRetries/netDropped).
 */
struct LinkFaultConfig
{
    /**
     * Explicit directed mesh-link indices (stack * 4 + dir, with dir
     * 0=east 1=west 2=south 3=north); takes precedence over @ref count.
     */
    std::vector<std::uint32_t> links;
    /** Number of faulty links picked deterministically from the seed. */
    std::uint32_t count = 0;
    /** Per-traversal transient drop probability in [0, 1). */
    double dropProb = 0.0;
    /** Fixed extra one-way latency on every faulty-link traversal. */
    double extraLatencyNs = 0.0;
    /** Retry budget per packet; delivery succeeds after at most this. */
    std::uint32_t maxRetries = 4;
    /** Base retransmission timeout; doubles on every further attempt. */
    double retryBackoffNs = 50.0;

    bool
    enabled() const
    {
        return (count > 0 || !links.empty())
            && (dropProb > 0.0 || extraLatencyNs > 0.0);
    }
};

/**
 * DRAM error-retry: with a configurable probability an access hits an
 * ECC correction/retry cycle and pays an additional latency adder
 * (per-bank, since the draw happens on the accessed bank's channel).
 */
struct DramFaultConfig
{
    /** Per-access probability of an ECC retry in [0, 1). */
    double eccRetryProb = 0.0;
    /** Latency adder of one ECC retry cycle. */
    double eccRetryNs = 100.0;

    bool enabled() const { return eccRetryProb > 0.0; }
};

/**
 * Failed NDP units: a chosen subset of units stops accepting work at a
 * configured point in simulated time — permanently (a dead vault) or
 * for a transient down-window (a unit-level reset). Unlike the latency
 * deratings above, this is a *loss* fault: the recovery protocol
 * (docs/ARCHITECTURE.md) drains the failing unit's queues, re-homes
 * its address range onto a live buddy, and redispatches undelivered
 * forwarded/stolen tasks after an ack timeout with capped exponential
 * backoff, so every staged task still executes exactly once.
 */
struct UnitFailureConfig
{
    /** Explicit failed unit ids; takes precedence over @ref count. */
    std::vector<std::uint32_t> units;
    /** Number of failed units picked deterministically from the seed. */
    std::uint32_t count = 0;
    /** Simulated time at which the set goes down (may be mid-epoch). */
    double failAtNs = 0.0;
    /** Time the units come back up; 0 means a permanent kill. */
    double recoverAtNs = 0.0;
    /**
     * Delivery-ack timeout for forwarded/stolen tasks: a send not
     * acknowledged within this window is redispatched to a live unit.
     * Every attempt waits this same window; only the redispatch
     * backoff below doubles per attempt (common/backoff.hh).
     */
    double ackTimeoutNs = 2000.0;
    /** Base backoff added before each redispatch attempt. */
    double redispatchBackoffNs = 500.0;
    /** Redispatch budget per task before delivery is forced direct. */
    std::uint32_t maxRedispatch = 8;

    bool enabled() const { return count > 0 || !units.empty(); }
};

/**
 * Epoch watchdog: abort with a diagnostic dump of per-unit queue depths
 * instead of hanging silently when one bulk-synchronous epoch exceeds
 * the configured simulated-time or event budget (0 = unlimited).
 */
struct WatchdogConfig
{
    /** Max simulated ticks a single epoch may span (0 = unlimited). */
    Tick maxEpochTicks = 0;
    /** Max events a single epoch may execute (0 = unlimited). */
    std::uint64_t maxEpochEvents = 0;

    bool enabled() const { return maxEpochTicks > 0 || maxEpochEvents > 0; }
};

/** All fault-injection knobs (SystemConfig::fault). */
struct FaultConfig
{
    StragglerFaultConfig straggler;
    LinkFaultConfig link;
    DramFaultConfig dram;
    UnitFailureConfig unitFailure;
    WatchdogConfig watchdog;

    /** Any injector (not the watchdog) active? */
    bool
    anyInjector() const
    {
        return straggler.enabled() || link.enabled() || dram.enabled()
            || unitFailure.enabled();
    }
};

} // namespace abndp

#endif // ABNDP_FAULT_FAULT_CONFIG_HH
