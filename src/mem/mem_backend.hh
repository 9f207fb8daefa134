/**
 * @file
 * Pluggable per-unit memory timing backends.
 *
 * Every DRAM access of one NDP unit — home reads/writes and Traveller
 * cache-region accesses alike — flows through a MemBackend. The seam
 * separates the *what* (MemSystem's access flow, servedLevel
 * semantics, energy attribution) from the *when* (queueing and bank
 * timing), so memory models can be swapped per run:
 *
 *  - MeterBackend (default): the historical open-row + bucketed
 *    bandwidth-meter model, bit-identical to the old DramChannel.
 *  - DdrBackend: a per-bank state machine with page-policy choice,
 *    tRAS/tWR recovery and channel tFAW ACT-window tracking.
 *
 * Both backends draw their fault-injection randomness from the same
 * per-unit seeded stream and must stay bit-deterministic: same config
 * implies the same metrics, run to run and thread count to thread
 * count.
 */

#ifndef ABNDP_MEM_MEM_BACKEND_HH
#define ABNDP_MEM_MEM_BACKEND_HH

#include <cstdint>
#include <memory>

#include "common/config.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "energy/energy.hh"
#include "fault/fault_model.hh"
#include "obs/stats_registry.hh"
#include "sim/bandwidth_meter.hh"

namespace abndp
{

namespace check
{
class CheckContext;
} // namespace check

/** One per-unit DRAM channel timing model (see file comment). */
class MemBackend
{
  public:
    /**
     * @param unit owning NDP unit (straggler/ECC fault targeting)
     * @param faults optional fault-injection engine: probabilistic
     *               per-bank ECC-retry latency adders and straggler
     *               bandwidth derating apply to this channel
     */
    MemBackend(const SystemConfig &cfg, EnergyAccount &energy,
               UnitId unit, const FaultModel *faults);

    virtual ~MemBackend() = default;

    /**
     * Perform one access and reserve the bank.
     *
     * @param addr byte address (bank/row derived from it)
     * @param bytes transfer size
     * @param isWrite write access
     * @param cacheRegion access targets the Traveller Cache data region
     *                    (energy attributed to the DRAM-cache component)
     * @param start tick at which the request arrives at the channel
     * @return total latency from @p start until data is available
     */
    virtual Tick access(Addr addr, std::uint32_t bytes, bool isWrite,
                        bool cacheRegion, Tick start) = 0;

    /** Forget all bank state (open rows, meters, refresh schedule). */
    virtual void resetState() = 0;

    /**
     * Retire bank-meter pages unreachable after the run loop's time
     * fence at @p tb (see MeterBackend::discardBefore for the
     * refresh-floor rule).
     */
    virtual void discardBefore(Tick tb) = 0;

    /** Visit every meter of this channel (audits only). */
    virtual void forEachMeter(const MeterVisitor &visit) const = 0;

    /**
     * Audit backend-specific timing invariants (e.g. the DDR tFAW
     * ACT-window bound); src/check only. Default: nothing to audit.
     */
    virtual void auditTiming(check::CheckContext &ctx) const;

    /** Register this channel's stats under @p node. */
    virtual void regStats(obs::StatNode &node) const;

    std::uint64_t reads() const { return nReads.value(); }
    std::uint64_t writes() const { return nWrites.value(); }
    std::uint64_t rowMisses() const { return nRowMisses.value(); }
    std::uint64_t refreshes() const { return nRefreshes.value(); }

    /** Accesses served out of an already-open row. */
    std::uint64_t
    rowHits() const
    {
        return nReads.value() + nWrites.value() - nRowMisses.value();
    }

    /** Ticks of ACT delay forced by the tFAW window (DdrBackend). */
    virtual std::uint64_t actStalls() const { return 0; }

    /** Accesses that paid an injected ECC-retry cycle. */
    std::uint64_t eccRetries() const { return nEccRetries.value(); }

    /** Queueing delay behind earlier same-bank accesses (ns). */
    const stats::Distribution &queueWaitNs() const { return waitNs; }

  protected:
    /**
     * Fault-injection adjustment shared by all backends: an ECC-retry
     * draw adds latency to @p core, then straggler bandwidth derating
     * stretches both @p core and @p burst. The Rng draw order (one
     * chance() per access when eccRetryProb > 0) is part of the
     * bit-determinism contract — backends must call this exactly once
     * per access, after composing the un-derated latencies.
     */
    void
    applyFaults(Tick &core, Tick &burst, Tick start)
    {
        double p = faults->eccRetryProb();
        if (p > 0.0 && faultRng.chance(p)) {
            ++nEccRetries;
            core += faults->eccRetryTicks();
        }
        double slow = faults->bandwidthSlowdown(unit, start);
        if (slow != 1.0) {
            core = static_cast<Tick>(core * slow);
            burst = static_cast<Tick>(burst * slow);
        }
    }

    EnergyAccount &energy;
    const FaultModel *faults;
    UnitId unit;
    /** Per-channel stream for the ECC-retry draws (seeded per unit). */
    Rng faultRng;
    /** Fault-free channels skip applyFaults() entirely (exact no-op). */
    bool faultsActive = false;

    // Timing shared by every backend (ticks; from DramConfig).
    Tick tCas;
    Tick tRcd;
    Tick tRp;
    Tick tRefi;
    Tick tRfc;
    bool refreshOn;
    std::uint32_t refreshCatchupMax;
    /** Ticks to burst one byte over the data bus. */
    double ticksPerByte;

    stats::Counter nReads;
    stats::Counter nWrites;
    stats::Counter nRowMisses;
    stats::Counter nRefreshes;
    stats::Counter nEccRetries;
    stats::Distribution waitNs;
};

/**
 * Construct the backend selected by cfg.dram.backend for @p unit.
 * The one switch over MemBackendKind in the simulator.
 */
std::unique_ptr<MemBackend>
makeMemBackend(const SystemConfig &cfg, EnergyAccount &energy,
               UnitId unit = 0, const FaultModel *faults = nullptr);

} // namespace abndp

#endif // ABNDP_MEM_MEM_BACKEND_HH
