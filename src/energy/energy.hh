/**
 * @file
 * Energy accounting for the ABNDP system.
 *
 * The breakdown follows Figure 7 of the paper: (1) NDP cores + SRAM
 * structures, (2) DRAM (memory + cache regions), (3) interconnect
 * transfers, (4) static energy. DRAM and interconnect constants come from
 * Table 1; SRAM constants are fixed CACTI-class numbers for the stated
 * structure sizes (see DESIGN.md substitution table).
 */

#ifndef ABNDP_ENERGY_ENERGY_HH
#define ABNDP_ENERGY_ENERGY_HH

#include <cstdint>

#include "common/config.hh"
#include "common/types.hh"

namespace abndp
{

/** Per-access SRAM energies (picojoules), CACTI-7-class values. */
struct SramEnergyConstants
{
    /** 64 kB 4-way L1-D / 32 kB L1-I access. */
    double l1AccessPj = 15.0;
    /** 4 kB FIFO prefetch buffer access. */
    double prefetchBufPj = 4.0;
    /** 160 kB Traveller Cache tag store lookup/update. */
    double tagStorePj = 8.0;
    /** Large (8 MB) pure-SRAM data cache access (Figure 13 variant). */
    double sramDataCachePj = 60.0;
    /** Per-core TLB lookup. */
    double tlbPj = 2.0;
};

/** Energy breakdown in picojoules, Figure-7 categories. */
struct EnergyBreakdown
{
    double coreSramPj = 0.0;
    double dramMemPj = 0.0;
    double dramCachePj = 0.0;
    double netPj = 0.0;
    double staticPj = 0.0;

    double
    total() const
    {
        return coreSramPj + dramMemPj + dramCachePj + netPj + staticPj;
    }

    double dram() const { return dramMemPj + dramCachePj; }

    bool operator==(const EnergyBreakdown &) const = default;

    EnergyBreakdown &
    operator+=(const EnergyBreakdown &o)
    {
        coreSramPj += o.coreSramPj;
        dramMemPj += o.dramMemPj;
        dramCachePj += o.dramCachePj;
        netPj += o.netPj;
        staticPj += o.staticPj;
        return *this;
    }
};

/**
 * Accumulates dynamic energy during a run and derives static energy at
 * finalization time. One instance per simulated system.
 */
class EnergyAccount
{
  public:
    explicit EnergyAccount(const SystemConfig &cfg) : cfg(&cfg) {}

    /** n executed instructions on NDP cores (371 pJ each, Section 6). */
    void
    addCoreInstructions(std::uint64_t n)
    {
        bd.coreSramPj += static_cast<double>(n) * cfg->corePjPerInstr;
    }

    /** One access to an L1 cache. */
    void addL1Access() { bd.coreSramPj += sram.l1AccessPj; }

    /** One access to the SRAM prefetch buffer. */
    void addPrefetchBufAccess() { bd.coreSramPj += sram.prefetchBufPj; }

    /** One lookup/update of the Traveller Cache SRAM tag store. */
    void addTagAccess() { bd.coreSramPj += sram.tagStorePj; }

    /** One per-core TLB lookup. */
    void addTlbAccess() { bd.coreSramPj += sram.tlbPj; }

    /** One access to the Figure-13 pure-SRAM data cache. */
    void addSramDataCacheAccess() { bd.coreSramPj += sram.sramDataCachePj; }

    /**
     * One DRAM access of @p bytes; @p rowMiss adds activate/precharge
     * energy; @p cacheRegion attributes the energy to the DRAM-cache
     * component of the Figure-7 breakdown.
     */
    void
    addDramAccess(std::uint32_t bytes, bool rowMiss, bool cacheRegion)
    {
        double pj = static_cast<double>(bytes) * 8.0 * cfg->dram.pjPerBitRw;
        if (rowMiss)
            pj += cfg->dram.pjActPre;
        (cacheRegion ? bd.dramCachePj : bd.dramMemPj) += pj;
    }

    /** One intra-stack crossbar traversal of @p bytes. */
    void
    addIntraTransfer(std::uint32_t bytes)
    {
        bd.netPj += static_cast<double>(bytes) * 8.0
            * cfg->net.intraPjPerBit;
    }

    /** @p hops inter-stack mesh hops of @p bytes each. */
    void
    addInterTransfer(std::uint32_t bytes, std::uint32_t hops)
    {
        bd.netPj += static_cast<double>(bytes) * 8.0 * hops
            * cfg->net.interPjPerBit;
    }

    /**
     * Compute static energy for a run of @p elapsed ticks: idle power of
     * every NDP core (163 uW each, Section 6) plus per-unit background
     * power (DRAM refresh/standby and always-on logic), integrated over
     * the run. With 1 tick = 1 ps, W * ticks = pJ.
     */
    void
    finalizeStatic(Tick elapsed)
    {
        double watts = cfg->coreIdleUw * 1e-6 * cfg->numCores()
            + cfg->staticMwPerUnit * 1e-3 * cfg->numUnits();
        bd.staticPj = watts * static_cast<double>(elapsed);
    }

    const EnergyBreakdown &breakdown() const { return bd; }

    void reset() { bd = EnergyBreakdown{}; }

  private:
    const SystemConfig *cfg;
    SramEnergyConstants sram;
    EnergyBreakdown bd;
};

} // namespace abndp

#endif // ABNDP_ENERGY_ENERGY_HH
