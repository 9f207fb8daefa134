/**
 * @file
 * Runtime interpreter of FaultConfig: resolves the straggler-unit and
 * faulty-link sets deterministically from the system seed and answers
 * the per-access queries of the core, network, DRAM, and scheduler
 * models. One instance per NdpSystem.
 */

#ifndef ABNDP_FAULT_FAULT_MODEL_HH
#define ABNDP_FAULT_FAULT_MODEL_HH

#include <cstdint>
#include <vector>

#include "common/config.hh"
#include "common/rng.hh"
#include "common/types.hh"

namespace abndp
{

/** Deterministic fault & straggler injection engine. */
class FaultModel
{
  public:
    explicit FaultModel(const SystemConfig &cfg);

    /** Any injector configured at all (fast no-fault path check). */
    bool anyInjector() const { return injectorsOn; }

    // ---- Straggler units ----

    /** Is unit @p u in the straggler set (regardless of the window)? */
    bool isStraggler(UnitId u) const { return stragglerMask[u] != 0; }

    /** The resolved straggler set, in unit-id order. */
    const std::vector<UnitId> &stragglers() const { return stragglerIds; }

    /**
     * Core-time stretch factor (>= 1) of unit @p u at tick @p now:
     * 1 / computeDerate inside the activity window, 1 outside.
     */
    double
    computeSlowdown(UnitId u, Tick now) const
    {
        if (stragglerMask[u] == 0 || !windowActive(now))
            return 1.0;
        return computeStretch;
    }

    /** Local-DRAM stretch factor (>= 1) of unit @p u at tick @p now. */
    double
    bandwidthSlowdown(UnitId u, Tick now) const
    {
        if (stragglerMask[u] == 0 || !windowActive(now))
            return 1.0;
        return bandwidthStretch;
    }

    /**
     * Effective service speed (<= 1) the scheduler's load snapshot sees
     * for unit @p u: the worse of the two deratings inside the window.
     * Dividing a unit's queued work W by this makes costload steer tasks
     * away from derated units proportionally to how slow they are.
     */
    double
    speedFactor(UnitId u, Tick now) const
    {
        if (stragglerMask[u] == 0 || !windowActive(now))
            return 1.0;
        return minDerate;
    }

    // ---- Link faults ----

    /** Is directed mesh link @p linkIdx (stack * 4 + dir) faulty? */
    bool
    linkFaulty(std::size_t linkIdx) const
    {
        return !linkMask.empty() && linkMask[linkIdx] != 0;
    }

    /**
     * Any faulty mesh link at all? Lets the network hoist the per-hop
     * linkFaulty() query out of its hot loop on fault-free machines.
     */
    bool
    anyLinkFault() const
    {
        for (std::uint8_t m : linkMask)
            if (m)
                return true;
        return false;
    }

    /** Fixed extra latency of one faulty-link traversal. */
    Tick linkExtraTicks() const { return extraTicks; }

    /**
     * Draw the number of consecutive transient drops a packet suffers on
     * a faulty link before getting through (bounded by maxRetries, so
     * delivery always succeeds and the simulation stays live).
     */
    std::uint32_t
    drawLinkDrops()
    {
        std::uint32_t drops = 0;
        while (drops < cfg.link.maxRetries && linkRng.chance(cfg.link.dropProb))
            ++drops;
        return drops;
    }

    /** Sender timeout before retransmission @p attempt (exponential). */
    Tick retryBackoffTicks(std::uint32_t attempt) const;

    // ---- DRAM error-retry ----

    double eccRetryProb() const { return cfg.dram.eccRetryProb; }
    Tick eccRetryTicks() const { return eccTicks; }

    // ---- Unit failures (fail-stop; see docs/ARCHITECTURE.md) ----
    //
    // The FaultModel owns the liveness mask and the deterministic
    // re-home map; the epoch engine drives the down/up transitions
    // (markDown/markUp) at the configured simulated times, and every
    // consumer — scheduler, memory system, steal probes — consults
    // isLive()/rehomeOf() instead of keeping private copies.

    /** Is the unit-failure injector configured at all? */
    bool unitFailuresEnabled() const { return cfg.unitFailure.enabled(); }

    /** The resolved failure set, in unit-id order. */
    const std::vector<UnitId> &failedUnits() const { return failedIds; }

    /** Is unit @p u currently accepting work? */
    bool isLive(UnitId u) const { return liveMask[u] != 0; }

    /** Any unit currently down (fast no-failure path check)? */
    bool anyUnitDown() const { return nDown > 0; }

    /** Units currently down. */
    std::uint32_t downCount() const { return nDown; }

    /**
     * The live unit serving unit @p u's role while @p u is down: the
     * next live unit in id order (wrapping), i.e. @p u itself while it
     * is live. validate() guarantees at least one live unit exists.
     */
    UnitId rehomeOf(UnitId u) const { return rehome[u]; }

    /** Take unit @p u down (idempotent); recomputes the re-home map. */
    void markDown(UnitId u);

    /** Bring unit @p u back up (idempotent). */
    void markUp(UnitId u);

    /** Tick at which the failure set goes down. */
    Tick failAtTick() const { return failTick; }

    /** Tick of recovery; 0 means the kill is permanent. */
    Tick recoverAtTick() const { return recoverTick; }

    /** Delivery-ack timeout for forwarded/stolen tasks (every try). */
    Tick ackTimeoutTicks() const { return ackTicks; }

    /** Backoff before redispatch @p attempt (capped exponential). */
    Tick redispatchBackoffTicks(std::uint32_t attempt) const;

    /** Redispatch budget per task. */
    std::uint32_t
    maxRedispatch() const
    {
        return cfg.unitFailure.maxRedispatch;
    }

  private:
    void recomputeRehome();

    bool
    windowActive(Tick now) const
    {
        if (windowEnd == 0)
            return true;
        return now >= windowStart && now < windowEnd;
    }

    const FaultConfig cfg;
    bool injectorsOn;

    std::vector<std::uint8_t> stragglerMask; // unit -> straggler?
    std::vector<UnitId> stragglerIds;
    std::vector<std::uint8_t> linkMask;      // directed link -> faulty?
    double computeStretch;
    double bandwidthStretch;
    double minDerate;
    Tick windowStart;
    Tick windowEnd;
    Tick extraTicks;
    Tick backoffTicks;
    Tick eccTicks;

    std::vector<UnitId> failedIds;
    std::vector<std::uint8_t> liveMask;  // unit -> currently live?
    std::vector<UnitId> rehome;          // unit -> live stand-in
    std::uint32_t nDown = 0;
    Tick failTick;
    Tick recoverTick;
    Tick ackTicks;
    Tick redispatchTicks;

    Rng linkRng;
};

} // namespace abndp

#endif // ABNDP_FAULT_FAULT_MODEL_HH
