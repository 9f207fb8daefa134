/**
 * @file
 * The default memory backend: per-bank bucketed bandwidth meters plus
 * an open-row bit (HBM-like, Table 1).
 *
 * Each NDP unit owns one channel with several independent banks. Banks
 * track an open row; accesses pay tCAS on a row hit or tRP + tRCD +
 * tCAS on a row miss, plus the data burst, and queue behind earlier
 * accesses to the same bank through the bank's BandwidthMeter. This is
 * the historical DramChannel model, extracted verbatim behind the
 * MemBackend seam — it is bit-identical to the pre-seam simulator
 * (the golden-metrics suite holds it to that).
 */

#ifndef ABNDP_MEM_METER_BACKEND_HH
#define ABNDP_MEM_METER_BACKEND_HH

#include <cstdint>
#include <vector>

#include "mem/address_map.hh"
#include "mem/mem_backend.hh"
#include "sim/bandwidth_meter.hh"

namespace abndp
{

/** Meter-based DRAM channel (the local vault of one NDP unit). */
class MeterBackend : public MemBackend
{
  public:
    MeterBackend(const SystemConfig &cfg, EnergyAccount &energy,
                 UnitId unit = 0, const FaultModel *faults = nullptr);

    Tick access(Addr addr, std::uint32_t bytes, bool isWrite,
                bool cacheRegion, Tick start) override;

    void resetState() override;

    /**
     * Retire bank-meter pages unreachable after the run loop's time
     * fence at @p tb.
     *
     * Every access() reservation walks forward from its start tick,
     * and after the fence all future starts are >= @p tb — except the
     * lazy refresh catch-up, which backdates reservations to
     * bank.nextRefresh. nextRefresh is monotone, so flooring each
     * bank's discard at min(tb, nextRefresh) keeps the retirement
     * exact even for a bank whose refresh schedule lags the fence
     * arbitrarily far behind.
     */
    void discardBefore(Tick tb) override;

    void forEachMeter(const MeterVisitor &visit) const override;

  private:
    /** Spread initial per-bank refresh deadlines round-robin. */
    void staggerRefresh();

    struct Bank
    {
        BandwidthMeter meter;
        std::uint64_t openRow = ~0ull;
        /** Next scheduled refresh for this bank. */
        Tick nextRefresh = 0;
    };

    std::vector<Bank> banks;
    // Shared decode arithmetic (pow2 shift/mask fast path): global row
    // number = addr / rowBytes, bank = row % banks — consecutive rows
    // rotate across banks, preserving row locality for streams.
    Pow2Split rowSplit;
    Pow2Split bankSplit;
};

} // namespace abndp

#endif // ABNDP_MEM_METER_BACKEND_HH
