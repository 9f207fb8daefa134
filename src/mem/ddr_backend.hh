/**
 * @file
 * Bank-state DDR/HBM memory backend.
 *
 * Where MeterBackend folds all bank timing into "row hit or row miss
 * plus queueing", DdrBackend keeps a per-bank state machine in the
 * style of zsim's DDR channel backend:
 *
 *  - a page policy (open / close / adaptive) decides whether the row
 *    buffer stays open after each column access;
 *  - precharge respects tRAS (the row must stay open long enough
 *    after its ACT) and tWR (write recovery after the last write
 *    burst), and costs tRP before the next ACT;
 *  - the four-activate window (at most 4 ACTs per tFAW interval, a
 *    power-delivery limit) is accounted with a channel-wide
 *    BandwidthMeter whose bucket width is one tFAW window and where
 *    every ACT reserves a quarter window — the meter's own
 *    fill <= width invariant then *is* the ACT-count bound, and the
 *    bucketed backfill stays stable under the out-of-order
 *    reservation starts that sank the naive next-ACT-time scalar
 *    (see sim/bandwidth_meter.hh). Window-induced delay is counted
 *    as an ACT stall;
 *  - refresh is scheduled lazily per bank exactly like the meter
 *    backend (bounded catch-up, refresh closes the row);
 *  - the bank/row/column split is configurable (DramAddrMapKind),
 *    decoded through the shared DramAddrMap.
 *
 * Queueing still rides on the per-bank BandwidthMeter, and — key to
 * stability — the bank meter only ever reserves the *constant* part
 * of an access (precharge + activate + CAS + burst). Bank-state
 * recovery waits (tRAS/tWR/precharge completion) and ACT-window
 * stalls are latency adders on top, computed as saturating
 * differences against the access's own start tick and capped at one
 * worst-case bank turnaround (tRAS + tWR + tRP): reservations arrive
 * out of time order, so an anchor left by a logically-later access
 * must not charge an unbounded wait to an earlier one, and folding
 * wait time back into reserved service would let the backlog feed on
 * itself (the exact instability BandwidthMeter exists to avoid).
 */

#ifndef ABNDP_MEM_DDR_BACKEND_HH
#define ABNDP_MEM_DDR_BACKEND_HH

#include <cstdint>
#include <vector>

#include "mem/address_map.hh"
#include "mem/mem_backend.hh"
#include "sim/bandwidth_meter.hh"

namespace abndp
{

/** Per-bank-state DDR channel (the local vault of one NDP unit). */
class DdrBackend : public MemBackend
{
  public:
    DdrBackend(const SystemConfig &cfg, EnergyAccount &energy,
               UnitId unit = 0, const FaultModel *faults = nullptr);

    Tick access(Addr addr, std::uint32_t bytes, bool isWrite,
                bool cacheRegion, Tick start) override;

    void resetState() override;

    /** Same refresh-floor discard rule as MeterBackend. */
    void discardBefore(Tick tb) override;

    /** The bank meters, then the channel's ACT meter. */
    void forEachMeter(const MeterVisitor &visit) const override;

    /**
     * Audit the four-activate window: the ACT meter reserves one
     * quarter window per ACT with a bucket one tFAW window wide, so
     * a bucket fill above the width would mean five ACTs were packed
     * into one window. Fills must also be whole quarters — nothing
     * but ACT slots may ever be poured into this meter.
     */
    void auditTiming(check::CheckContext &ctx) const override;

    /** Adds rowHits/actStalls and per-bank vectors to the base set. */
    void regStats(obs::StatNode &node) const override;

    std::uint64_t actStalls() const override
    {
        return nActStalls.value();
    }

  private:
    struct Bank
    {
        BandwidthMeter meter;
        std::uint64_t openRow = ~0ull;
        bool rowOpen = false;
        /** Next scheduled refresh for this bank. */
        Tick nextRefresh = 0;
        /** Latest assigned time of this bank's ACTs (tRAS anchor). */
        Tick lastActAt = 0;
        /** End of this bank's last write burst (tWR anchor). */
        Tick writeEnd = 0;
        /** Auto-precharge completion after a closed access. */
        Tick bankReadyAt = 0;
        /** Adaptive page policy: saturating row-hit history [0, 3].
         *  Hits credit, conflict misses debit, and a miss that
         *  re-activates the row the policy just closed (a wasted
         *  close, see lastClosedRow) credits — the recovery path
         *  back to open-page once hits have stopped happening. */
        std::uint32_t openScore = 2;
        /** Row closed by the most recent policy precharge. */
        std::uint64_t lastClosedRow = ~0ull;
        // Per-bank observational counters (stats vectors only).
        std::uint64_t rowHits = 0;
        std::uint64_t rowMisses = 0;
        std::uint64_t actStallCount = 0;
        std::uint64_t refreshCount = 0;
    };

    /** Spread initial per-bank refresh deadlines round-robin. */
    void staggerRefresh();

    std::vector<Bank> banks;
    DramAddrMap amap;
    PagePolicy policy;
    Tick tRas;
    Tick tWr;

    /**
     * Channel-wide four-activate window accounting: each ACT
     * reserves actQuarter ticks in a meter whose buckets span
     * 4 * actQuarter >= tFAW. actQuarter == 0 (tFAW disabled)
     * bypasses the meter entirely.
     */
    Tick actQuarter;
    BandwidthMeter actMeter;

    stats::Counter nActStalls;
};

} // namespace abndp

#endif // ABNDP_MEM_DDR_BACKEND_HH
