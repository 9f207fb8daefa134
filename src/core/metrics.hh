/**
 * @file
 * Metrics collected from one simulated run; the raw material for every
 * table and figure of the evaluation.
 */

#ifndef ABNDP_CORE_METRICS_HH
#define ABNDP_CORE_METRICS_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "energy/energy.hh"

namespace abndp
{

/** Everything measured during one workload run on one system design. */
struct RunMetrics
{
    /** End-to-end execution time in ticks (1 tick = 1 ps). */
    Tick ticks = 0;
    std::uint64_t epochs = 0;
    std::uint64_t tasks = 0;

    /** Figure-8 metric: total inter-stack mesh hops of all packets. */
    std::uint64_t interHops = 0;
    std::uint64_t intraTraversals = 0;

    EnergyBreakdown energy;

    /** Figure-9 metric: busy ticks of every core. */
    std::vector<Tick> coreActiveTicks;

    // Cache behaviour.
    std::uint64_t campHits = 0;
    std::uint64_t campMisses = 0;
    std::uint64_t cacheInserts = 0;
    std::uint64_t pbHits = 0;
    std::uint64_t pbLateHits = 0;
    std::uint64_t pbMisses = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t l1Misses = 0;

    // Scheduling behaviour.
    std::uint64_t stealAttempts = 0;
    std::uint64_t stolenTasks = 0;
    std::uint64_t forwardedTasks = 0;
    std::uint64_t schedDecisions = 0;

    std::uint64_t dramReads = 0;
    std::uint64_t dramWrites = 0;
    std::uint64_t dramRowMisses = 0;
    /** Accesses served out of an already-open row. */
    std::uint64_t dramRowHits = 0;
    /** ACTs delayed by the channel tFAW window (DdrBackend only). */
    std::uint64_t dramActStalls = 0;

    // Fault injection (all zero when no faults are configured).
    /** Transmission attempts lost on injected faulty mesh links. */
    std::uint64_t netDropped = 0;
    /** Retransmissions issued to repair faulty-link drops. */
    std::uint64_t netRetries = 0;
    /** DRAM accesses that paid an injected ECC-retry cycle. */
    std::uint64_t dramEccRetries = 0;

    // Unit-failure recovery (all zero when no unit failure is
    // configured; see docs/ARCHITECTURE.md).
    /** Units that went down at least once during the run. */
    std::uint64_t unitsFailed = 0;
    /** Tasks drained from failing units' queues and re-injected. */
    std::uint64_t tasksRecovered = 0;
    /** Forward/steal deliveries redispatched after an ack timeout. */
    std::uint64_t tasksRedispatched = 0;
    /** Bytes shipped by the recovery protocol (drains + redispatch). */
    std::uint64_t recoveryTrafficBytes = 0;

    // Online serving (all zero in batch runs; see docs/ARCHITECTURE.md).
    /** Requests the open-loop arrival process generated. */
    std::uint64_t servingInjected = 0;
    /** Arrivals refused by admission control (maxOutstanding). */
    std::uint64_t servingRejected = 0;
    /** Admitted requests completed without recovery involvement. */
    std::uint64_t servingCompletedDirect = 0;
    /** Admitted requests completed after the recovery protocol. */
    std::uint64_t servingCompletedRecovered = 0;
    /** Completed requests whose latency exceeded the SLO. */
    std::uint64_t servingSloMisses = 0;
    /** Stats/exchange windows elapsed (the serving "epochs"). */
    std::uint64_t servingWindows = 0;
    /** Exact nearest-rank latency percentiles, in nanoseconds. */
    double servingP50Ns = 0.0;
    double servingP95Ns = 0.0;
    double servingP99Ns = 0.0;
    double servingP999Ns = 0.0;
    double servingMeanNs = 0.0;
    /** Completed-within-SLO requests per second of simulated time. */
    double servingGoodputQps = 0.0;
    /** (rejected + SLO misses) / injected. */
    double servingSloMissRate = 0.0;

    // Hierarchical load balancing + migration (all zero when lb is
    // unconfigured; see docs/ARCHITECTURE.md).
    /** Tasks shed by the intra-stack (crossbar) balancer tier. */
    std::uint64_t tasksShedIntra = 0;
    /** Tasks shed by the inter-stack (mesh) balancer tier. */
    std::uint64_t tasksShedInter = 0;
    /** Blocks re-homed by the migration engine. */
    std::uint64_t blocksMigrated = 0;
    /** Stale-camp invalidations issued by migrations (one each). */
    std::uint64_t migrationInvalidations = 0;
    /** Bytes shipped moving re-homed blocks between units. */
    std::uint64_t migrationTrafficBytes = 0;

    /** End-to-end block read latency (ns) seen below the L1/buffers. */
    double readLatMeanNs = 0.0;
    double readLatMaxNs = 0.0;

    // ---- Simulator self-measurement ----
    /** Kernel events executed during the run (deterministic). */
    std::uint64_t simEvents = 0;
    /**
     * Host wall-clock seconds spent inside run(). Reporting only — the
     * one sanctioned use of wall time; it never feeds simulation state,
     * and a determinism comparison zeroes it on both sides first.
     */
    double hostSeconds = 0.0;

    /** Field-by-field equality, every field added later included. */
    bool operator==(const RunMetrics &) const = default;

    /** Simulator throughput: kernel events per host second. */
    double
    eventsPerSec() const
    {
        return hostSeconds > 0.0 ? simEvents / hostSeconds : 0.0;
    }

    /** Fraction of core-time spent busy (mean over cores). */
    double
    utilization() const
    {
        return ticks > 0 && !coreActiveTicks.empty()
            ? meanCoreActive() / static_cast<double>(ticks)
            : 0.0;
    }

    double seconds() const { return static_cast<double>(ticks) * 1e-12; }

    /** Busy ticks of the busiest core (load imbalance indicator). */
    Tick
    maxCoreActive() const
    {
        Tick m = 0;
        for (Tick t : coreActiveTicks)
            m = std::max(m, t);
        return m;
    }

    /** Mean busy ticks over all cores. */
    double
    meanCoreActive() const
    {
        if (coreActiveTicks.empty())
            return 0.0;
        double s = 0.0;
        for (Tick t : coreActiveTicks)
            s += static_cast<double>(t);
        return s / coreActiveTicks.size();
    }

    /** Ratio busiest/mean; 1.0 means perfectly balanced. */
    double
    imbalance() const
    {
        double mean = meanCoreActive();
        return mean > 0.0 ? maxCoreActive() / mean : 0.0;
    }

    double
    campHitRate() const
    {
        auto total = campHits + campMisses;
        return total ? static_cast<double>(campHits) / total : 0.0;
    }
};

} // namespace abndp

#endif // ABNDP_CORE_METRICS_HH
